"""Tests for the command-line experiment runner."""

import argparse
import csv
import dataclasses
import inspect
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdlab import cli
from gdlab.cli import build_parser, main
from gdlab.io import dumps
from gdlab.distributed import DgdTrace, graph_to_json, make_graph, run_dgd
from gdlab.presets import PRESETS, build_dataset
from gdlab.problem import dataset_from_rows, dataset_to_json, gen_dataset, load_dataset
from gdlab.solvers import IterationTrace, SolverConfig, run_ensemble

DATASET_FILE = "<a dataset file>"  # stands for a dataset file the test writes
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))  # for a fresh process


def read_summary(out):
    with open(os.path.join(out, "summary.json")) as fh:
        return json.load(fh)


def zero_row_dataset(path):
    """A dataset file of six unit-norm gaussian rows in R^8, one set to zero."""
    X = gen_dataset(6, 8, "gaussian", normalize=True, seed=3).X.copy()
    X[2] = 0.0
    with open(path, "w") as fh:
        fh.write(dataset_to_json(dataset_from_rows(X)))
    return str(path)


class TestTheoryCommand:
    def test_two_eigenvalue_example(self, tmp_path):
        out = str(tmp_path)
        rc = main(["theory", "--n", "4", "--lambda1", "3", "--lambdan", "1",
                   "--m", "4", "--out", out])
        assert rc == 0
        s = read_summary(out)
        assert s["theory"]["g_opt"] == 0.25
        assert s["theory"]["eta_opt"] == 0.5
        assert s["theory"]["branch"] == "gd-limit"

    def test_cost_block_with_epsilon(self, tmp_path):
        out = str(tmp_path)
        rc = main(["theory", "--n", "4", "--lambda1", "3", "--lambdan", "1",
                   "--m", "2", "--d", "8", "--epsilon", "0.25", "--out", out])
        assert rc == 0
        s = read_summary(out)
        assert s["cost"]["t_eps"] > 0
        # a flat spectrum at m = n has g* = 0, which reaches any epsilon in one step
        assert main(["theory", "--n", "4", "--lambda1", "1", "--lambdan", "1", "--m", "4",
                     "--epsilon", "0.1", "--out", out]) == 0
        s = read_summary(out)
        assert s["theory"]["g_opt"] == 0
        assert s["cost"]["t_eps"] == 1

    @pytest.mark.parametrize("argv, eta, branch", [
        # denom * denom once underflowed to 0: a ZeroDivisionError traceback
        (["--lambda1", "1e-200", "--lambdan", "1e-200"], 2.0 / (1e-200 + 1e-200), "gd-limit"),
        # it once overflowed to inf, and the command exited 1 with "rate
        # prediction out of range: eta=1e-300, g=nan"
        (["--lambda1", "1e300", "--lambdan", "1e300", "--m", "1"], 2.0 / (2e300 + 0.75),
         "two-parabola"),
    ])
    def test_flat_spectrum_far_from_one(self, tmp_path, argv, eta, branch):
        # a flat spectrum is solved in one step at any scale; at m = 1 its g*
        # is about q / lambda, far below the float spacing at 1
        out = str(tmp_path)
        assert main(["theory", "--n", "4", *argv, "--out", out]) == 0
        theory = read_summary(out)["theory"]
        assert (theory["eta_opt"], theory["g_opt"], theory["branch"]) == (eta, 0, branch)

    def test_from_preset_dataset(self, tmp_path):
        out = str(tmp_path)
        rc = main(["theory", "--preset", "orthonormal32", "--m", "8", "--out", out])
        assert rc == 0
        s = read_summary(out)
        assert s["theory"]["g_opt"] == pytest.approx(0.75, abs=1e-9)

    def test_orthogonal_bound_uses_row_norms(self, tmp_path):
        # cond4x16's squared row norms are not equal, so c < 1 in 1 - c m/n;
        # with only a spectrum given the rows are taken as unit-norm
        out = str(tmp_path / "preset")
        assert main(["theory", "--preset", "cond4x16", "--m", "4", "--out", out]) == 0
        assert read_summary(out)["theory"]["g_orthogonal_bound"] == \
            pytest.approx(0.7878285779187415, rel=1e-14)
        out = str(tmp_path / "spectrum")
        assert main(["theory", "--n", "16", "--lambda1", "1", "--lambdan", "0.25",
                     "--m", "4", "--out", out]) == 0
        assert read_summary(out)["theory"]["g_orthogonal_bound"] == 0.75

    @pytest.mark.parametrize("option", [
        ["--dataset", "dataset.json"], ["--kind", "gaussian"], ["--rho", "0.5"],
        ["--normalize"], ["--data-seed", "3"], ["--preset", "orthonormal32"],
    ])
    def test_spectrum_form_refuses_dataset_options(self, tmp_path, capsys, option):
        # with --lambda1 and --lambdan no dataset is read, so none may be given
        out = str(tmp_path)
        rc = main(["theory", "--n", "16", "--lambda1", "1", "--lambdan", "0.25", *option,
                   "--out", out])
        assert rc == 1
        assert option[0] in capsys.readouterr().err
        assert os.listdir(out) == []


class TestGenCommand:
    def test_writes_loadable_dataset(self, tmp_path):
        out = str(tmp_path)
        rc = main(["gen", "--n", "6", "--d", "8", "--kind", "gaussian",
                   "--normalize", "--seed", "5", "--out", out])
        assert rc == 0
        ds = load_dataset(os.path.join(out, "dataset.json"))
        assert (ds.n, ds.d) == (6, 8)
        assert ds.normalized
        s = read_summary(out)
        assert s["spectral"]["rank"] == 6
        assert s["config"]["command"] == "gen"

    def test_preset(self, tmp_path):
        out = str(tmp_path)
        assert main(["gen", "--preset", "cond4x16", "--out", out]) == 0
        s = read_summary(out)
        assert s["spectral"]["condition_number"] == pytest.approx(4.0, rel=1e-9)


class TestRunCommand:
    def test_gd_single_run(self, tmp_path):
        out = str(tmp_path)
        rc = main(["run", "gd", "--preset", "gaussian8", "--iters", "30", "--out", out])
        assert rc == 0
        s = read_summary(out)
        assert s["empirical"]["statuses"] == {"max-iters": 1}
        assert os.path.exists(os.path.join(out, "run_000.csv"))
        assert not os.path.exists(os.path.join(out, "mean.csv"))

    def test_sgd_ensemble_files(self, tmp_path):
        out = str(tmp_path)
        rc = main(["run", "sgd", "--preset", "gaussian8", "--m", "2", "--runs", "5",
                   "--iters", "20", "--seed", "3", "--out", out])
        assert rc == 0
        for k in range(5):
            assert os.path.exists(os.path.join(out, f"run_{k:03d}.csv"))
        assert os.path.exists(os.path.join(out, "mean.csv"))
        header = open(os.path.join(out, "run_000.csv")).readline().strip()
        assert header == "t,err_sq_range,loss,batch_size"
        s = read_summary(out)
        assert len(s["empirical"]["seeds"]) == 5

    def test_run_statuses_in_run_order(self, tmp_path):
        # a CSV trace carries no status, so summary.json lists each run's;
        # at eta = 5 about one run in ten diverges within 400 iterations
        out = str(tmp_path)
        assert main(["run", "sgd", "--preset", "orthonormal32", "--eta", "5", "--m", "2",
                     "--stop-tol", "1e-8", "--iters", "400", "--runs", "100",
                     "--out", out]) == 2
        emp = read_summary(out)["empirical"]
        cfg = SolverConfig(eta=5.0, m=2.0, max_iters=400, stop_tol=1e-8)
        ens = run_ensemble(build_dataset("orthonormal32"), cfg, runs=100)
        assert emp["run_statuses"] == [tr.status for tr in ens.traces]
        assert Counter(emp["run_statuses"]) == emp["statuses"]
        assert set(emp["run_statuses"]) == {"diverged", "max-iters"}

    def test_blas_thread_count_moves_only_the_operator_spectrum(self, tmp_path):
        # README promises identical bytes at a fixed BLAS thread count.  Across
        # counts only the eigensolve of the round operator's range block may
        # move, in its last digits (as on run dgd --preset ring16 --mu 1, 256
        # rows; this 64-row one held still at 1 and 2 threads on a 2-vCPU
        # host): these fields of summary.json, and the observed values,
        # bounds and margins of the two verdicts read from it.  Every other
        # byte stays
        spectrum, verdicts = ("sigma_min", "sigma_max", "rate_spectral"), ("contracting",
                                                                         "spectral_match")

        def fixed(summary):
            dgd = {k: v for k, v in summary["dgd"].items() if k not in spectrum}
            checks = [{"name": v["name"], "ok": v["ok"]} if v["name"] in verdicts else v
                      for v in summary["verdicts"]]
            return {**summary, "dgd": dgd, "verdicts": checks}

        out = str(tmp_path / "out")  # one path for both: summary.json records it
        files = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=SRC)
            subprocess.run([sys.executable, "-m", "gdlab.cli", "run", "dgd", "--preset",
                            "gaussian8", "--graph-kind", "complete", "--out", out],
                           env=env, check=True)
            files.append({name: open(os.path.join(out, name), "rb").read()
                          for name in os.listdir(out)})
            shutil.rmtree(out)
        one, two = files
        assert set(one) == set(two) == {"dataset.json", "graph.json", "summary.json", "trace.csv"}
        for name in ("dataset.json", "graph.json", "trace.csv"):
            assert one[name] == two[name], name
        assert fixed(json.loads(one["summary.json"])) == fixed(json.loads(two["summary.json"]))

    def test_byte_reproducibility(self, tmp_path):
        args = ["run", "sgd", "--preset", "gaussian8", "--m", "2", "--runs", "4",
                "--iters", "25", "--seed", "11"]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", out_a]) == 0
        assert main(args + ["--out", out_b]) == 0
        for name in sorted(os.listdir(out_a)):
            if name.endswith(".csv") or name == "dataset.json":
                with open(os.path.join(out_a, name), "rb") as fa, \
                     open(os.path.join(out_b, name), "rb") as fb:
                    assert fa.read() == fb.read(), name

    def test_diverged_exit_code(self, tmp_path):
        out = str(tmp_path)
        rc = main(["run", "gd", "--preset", "gaussian8", "--eta", "200",
                   "--iters", "200", "--out", out])
        assert rc == 2
        assert read_summary(out)["empirical"]["statuses"].get("diverged") == 1

    def test_dgd_band_check(self, tmp_path):
        out = str(tmp_path)
        rc = main(["run", "dgd", "--preset", "gaussian8", "--graph-kind", "ring",
                   "--mu", "1", "--iters", "20000", "--w0-seed", "5", "--out", out])
        assert rc == 0
        s = read_summary(out)
        assert [(v["name"], v["ok"]) for v in s["verdicts"]] == [
            ("converged", True), ("contracting", True), ("rate_band", True),
            ("spectral_match", True)]
        assert s["dgd"]["sigma_min"] > 0
        header = open(os.path.join(out, "trace.csv")).readline().strip()
        assert header == "t,mean_err_sq_range,edge_spread,global_spread,penalized_loss"
        assert os.path.exists(os.path.join(out, "graph.json"))

    def test_dgd_penalized_loss_is_the_objective(self, tmp_path):
        # row 0 recomputed from the written inputs: sum of squared residuals
        # plus mu (the --mu loss weight, not the coupling eta * mu) times the
        # sum of squared edge differences
        out = str(tmp_path)
        main(["run", "dgd", "--preset", "ring16", "--mu", "10", "--w0-seed", "7",
              "--iters", "5", "--stop-tol", "0", "--out", out])
        with open(os.path.join(out, "graph.json")) as fh:
            edges = json.load(fh)["edges"]
        ds = load_dataset(os.path.join(out, "dataset.json"))
        W0 = np.random.default_rng(7).standard_normal((ds.n, ds.d))
        residuals = [float(ds.X[i] @ W0[i] - ds.y[i]) for i in range(ds.n)]
        edge_sq = [float(np.sum((W0[i] - W0[j]) ** 2)) for i, j in edges]
        expected = sum(r * r for r in residuals) + 10.0 * sum(edge_sq)
        with open(os.path.join(out, "trace.csv")) as fh:
            header, row0 = fh.readline().strip().split(","), fh.readline().strip().split(",")
        loss0 = float(row0[header.index("penalized_loss")])
        assert len(edges) == 16
        assert loss0 == pytest.approx(expected, rel=1e-12)

    def test_input_files_reproduce_the_run(self, tmp_path):
        # a command's own dataset.json and graph.json, passed back as
        # --dataset/--graph, give the same inputs and the same traces
        def same(a, b, names):
            for name in names:
                with open(os.path.join(a, name), "rb") as fa, \
                     open(os.path.join(b, name), "rb") as fb:
                    assert fa.read() == fb.read(), name

        first, again = str(tmp_path / "dgd"), str(tmp_path / "dgd_again")
        opts = ["--iters", "300", "--stop-tol", "0", "--w0-seed", "5", "--mu", "1"]
        rc = main(["run", "dgd", "--preset", "gaussian8", "--graph-kind", "ring", *opts,
                   "--out", first])
        dataset = os.path.join(first, "dataset.json")
        assert main(["run", "dgd", "--dataset", dataset,
                     "--graph", os.path.join(first, "graph.json"), *opts,
                     "--out", again]) == rc
        same(first, again, ["dataset.json", "graph.json", "trace.csv"])
        first, again = str(tmp_path / "sgd"), str(tmp_path / "sgd_again")
        opts = ["--m", "2", "--runs", "3", "--iters", "20", "--seed", "4"]
        assert main(["run", "sgd", "--preset", "gaussian8", *opts, "--out", first]) == 0
        assert main(["run", "sgd", "--dataset", dataset, *opts, "--out", again]) == 0
        same(first, again, ["dataset.json", "run_000.csv", "run_002.csv", "mean.csv"])

    def test_sgd_cost_block_with_epsilon(self, tmp_path):
        # orthonormal32 at m = 8: g* = 0.75 and c = 1
        out = str(tmp_path)
        assert main(["run", "sgd", "--preset", "orthonormal32", "--m", "8", "--runs", "5",
                     "--iters", "10", "--epsilon", "0.01", "--out", out]) == 0
        cost = read_summary(out)["cost"]
        t_eps = math.log(100) / math.log(1 / 0.75)
        assert cost["t_eps"] == pytest.approx(t_eps, rel=1e-12)
        assert cost["total_cost"] == pytest.approx(8 * 32 * t_eps, rel=1e-12)
        assert cost["cost_scaling"] == pytest.approx(8 / math.log(32 / 24), rel=1e-12)


class TestSweepCommand:
    def test_sweep_m_predictions_only(self, tmp_path):
        out = str(tmp_path)
        rc = main(["sweep", "m", "--preset", "orthonormal32", "--runs", "0",
                   "--out", out, "--epsilon", "0.01"])
        assert rc == 0
        lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert lines[0].startswith("m,eta_opt,g_opt,branch,t_eps")
        rows = [ln.split(",") for ln in lines[1:]]
        # measured column empty, cost_scaling blank only at m = n
        assert all(r[-1] == "" for r in rows)
        assert rows[-1][6] == ""  # c m = n has no defined scaling
        scalings = [float(r[6]) for r in rows[:-1]]
        assert all(a > b for a, b in zip(scalings, scalings[1:]))

    def test_converging_runs_load_no_numpy_ma(self, tmp_path):
        # in numpy 2.4 np.unique imports numpy.ma, which the first stop of a
        # DGD run once loaded (about 1.3 MB resident) through the solver loop;
        # a fresh process, since the test process may hold numpy.ma already
        out = str(tmp_path)
        script = (
            "import json, sys\n"
            "from gdlab import cli\n"
            "before = set(sys.modules)\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(json.dumps([rc, sorted(set(sys.modules) - before)]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "sweep", "mu", "--n", "4", "--d", "4", "--kind",
             "orthonormal", "--graph-kind", "complete", "--values", "0.1,1,10", "--iters",
             "20000", "--stop-tol", "1e-12", "--out", out],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True)
        rc, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["converged"] * 3
        numpy = [m for m in loaded if m == "numpy" or m.startswith("numpy.")]
        assert all(m.split(".")[:2] == ["numpy", "random"] for m in numpy), numpy

    def test_sweep_eta_with_measurement(self, tmp_path):
        out = str(tmp_path)
        rc = main(["sweep", "eta", "--preset", "gaussian8", "--m", "2",
                   "--values", "0.2,0.5", "--runs", "10", "--iters", "25", "--out", out])
        assert rc == 0
        s = read_summary(out)
        assert len(s["rows"]) == 2
        assert all(r["g_hat_measured"] is not None for r in s["rows"])

    def test_overflowing_eta_has_no_prediction(self, tmp_path):
        # g_pred at eta = 1e300 overflows: it once printed a numpy overflow
        # warning and exited 1 with "non-finite value cannot be serialized:
        # inf"; now the row holds null, and the runs diverge as run sgd's do
        out = str(tmp_path)
        rc = main(["sweep", "eta", "--preset", "gaussian8", "--runs", "2", "--iters", "10",
                   "--values", "1e300", "--m", "3", "--out", out])
        assert rc == 2
        [row] = read_summary(out)["rows"]
        assert row["g_pred"] is None and row["status"] == "diverged"
        lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert lines[1].split(",")[2:] == ["", "", "diverged"]

    @pytest.mark.parametrize("runs", [[], ["--runs", "2"]])
    def test_sweep_eta_predicts_only_g_pred(self, tmp_path, runs):
        # sweep eta writes no eta* or g*; it once computed them for every
        # point, so an m in (0, n] whose g* rounds to 1 exited 1 with
        # "--m 1e-200: rate prediction out of range"
        out = str(tmp_path)
        assert main(["sweep", "eta", "--preset", "gaussian8", "--values", "3", "--m", "1e-200",
                     *runs, "--out", out]) == 0
        lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert lines[0] == "eta,m,g_pred,g_hat_measured,status" and len(lines) == 2

    def test_sweep_mu(self, tmp_path):
        out = str(tmp_path)
        rc = main(["sweep", "mu", "--preset", "gaussian8", "--graph-kind", "ring",
                   "--values", "0.5,5", "--iters", "4000", "--w0-seed", "2", "--out", out])
        assert rc == 0
        s = read_summary(out)
        assert [r["mu"] for r in s["rows"]] == [0.5, 5.0]
        assert all(r["sigma_min"] > 0 for r in s["rows"])
        assert all(r["stable"] for r in s["rows"])
        assert os.path.exists(os.path.join(out, "trace_000.csv"))
        assert os.path.exists(os.path.join(out, "trace_001.csv"))

    def test_eta_and_mu_sweeps_take_a_zero_row(self, tmp_path):
        # only sweep m's cost model needs every row norm positive
        dataset = zero_row_dataset(tmp_path / "zero_row.json")
        for runs in ("0", "5"):
            out = str(tmp_path / f"eta_{runs}")
            assert main(["sweep", "eta", "--dataset", dataset, "--runs", runs,
                         "--values", "0.5,1", "--out", out]) == 0
            assert len(read_summary(out)["rows"]) == 2
        out = str(tmp_path / "mu")
        assert main(["sweep", "mu", "--dataset", dataset, "--graph-kind", "ring",
                     "--values", "0.5,5", "--out", out]) == 0
        assert [r["status"] for r in read_summary(out)["rows"]] == ["converged", "converged"]

    def test_sweep_m_with_measurement(self, tmp_path):
        out = str(tmp_path)
        assert main(["sweep", "m", "--preset", "orthonormal32", "--runs", "20",
                     "--values", "8", "--out", out]) == 0
        (row,) = read_summary(out)["rows"]
        assert row["status"] == "max-iters"
        assert abs(row["g_hat_measured"] - 0.75) <= 0.05

    def test_values_required_without_preset_defaults(self, tmp_path):
        rc = main(["sweep", "m", "--n", "4", "--d", "4", "--kind", "gaussian",
                   "--out", str(tmp_path)])
        assert rc == 1


class TestSpectrumCommand:
    def test_small_instance(self, tmp_path):
        out = str(tmp_path)
        rc = main(["spectrum", "--preset", "gaussian8", "--graph-kind", "complete",
                   "--mu", "1", "--out", out])
        assert rc == 0
        s = read_summary(out)
        assert s["dgd"]["skipped"] is False
        assert 0 < s["dgd"]["sigma_min"] <= s["dgd"]["sigma_max"]
        assert s["dgd"]["stable_by_bound"] in (True, False)

    def test_dense_guard_skips_fields(self, tmp_path):
        out = str(tmp_path)
        rc = main(["spectrum", "--n", "70", "--d", "64", "--kind", "gaussian",
                   "--normalize", "--graph-kind", "ring", "--mu", "1", "--out", out])
        assert rc == 0
        s = read_summary(out)
        assert s["dgd"]["skipped"] is True

    def test_guard_counts_range_coordinates(self, tmp_path):
        # n * d = 8192 is past the guard, n * rank H = 256 is not: the range
        # block is solved, and run dgd checks its rate against it
        common = ["--n", "16", "--d", "512", "--kind", "gaussian", "--graph-kind", "ring",
                  "--mu", "1"]
        out = str(tmp_path / "spectrum")
        assert main(["spectrum", *common, "--out", out]) == 0
        assert read_summary(out)["dgd"]["skipped"] is False
        out = str(tmp_path / "run")
        assert main(["run", "dgd", *common, "--out", out]) == 0
        assert read_summary(out)["dgd"]["skipped"] is False
        assert verdicts(out)["spectral_match"]["ok"] is True

    def test_rate_lower_meets_sigma_min_at_large_mu(self, tmp_path):
        # at fixed eta, sigma_min / (eta lambda_min_nz(H)) -> 1 as mu grows (0.99986
        # on ring16 at mu = 1e4), so rate_lower = 1 - eta lambda_min_nz(H) is pinned
        # by the spectrum from below and from above
        out = str(tmp_path)
        assert main(["spectrum", "--preset", "ring16", "--eta", "0.05", "--mu", "1e4",
                     "--out", out]) == 0
        dgd = read_summary(out)["dgd"]
        assert 0.999 <= dgd["sigma_min"] / (1.0 - dgd["rate_lower"]) <= 1.0 + 1e-8

    def test_given_eta_needs_no_stable_step(self, tmp_path):
        # at mu = 1e308 on a ring no stable step is positive, so the default
        # is refused; a given --eta is taken without computing it
        out = str(tmp_path)
        assert main(["spectrum", "--preset", "gaussian8", "--graph-kind", "ring", "--mu", "1e308",
                     "--eta", "1e-310", "--out", out]) == 0
        config = read_summary(out)["config"]
        assert (config["eta"], config["mu"]) == (1e-310, 1e308)


class TestConfigAndErrors:
    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "gaussian8", "iters": 12, "runs": 2}))
        out = str(tmp_path / "out")
        rc = main(["run", "sgd", "--config", str(cfg), "--m", "2", "--out", out])
        assert rc == 0
        s = read_summary(out)
        assert s["config"]["iters"] == 12
        assert len(s["empirical"]["seeds"]) == 2

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "gaussian8", "iters": 12}))
        out = str(tmp_path / "out")
        rc = main(["run", "gd", "--config", str(cfg), "--iters", "7", "--out", out])
        assert rc == 0
        assert read_summary(out)["config"]["iters"] == 7

    @pytest.mark.parametrize("argv, flag, config", [
        (["run", "sgd", "--preset", "gaussian8", "--seed", "-1"], "--seed", None),
        (["gen", "--n", "4", "--d", "4", "--kind", "gaussian", "--data-seed", "-1"],
         "--data-seed", None),
        (["run", "dgd", "--preset", "ring16", "--w0-seed", "-1"], "--w0-seed", None),
        (["run", "dgd", "--n", "4", "--d", "4", "--kind", "gaussian", "--graph-kind",
          "erdos_renyi", "--graph-p", "0.5", "--graph-seed", "-1"], "--graph-seed", None),
        # a config value is parsed as its flag
        (["run", "sgd", "--preset", "gaussian8"], "--seed", {"seed": -1}),
    ], ids=["seed", "data-seed", "w0-seed", "graph-seed", "config-seed"])
    def test_negative_seed_is_refused_by_name(self, tmp_path, tmp_path_factory, capsys,
                                              argv, flag, config):
        # numpy seeds no negative integer, and its own message named no option
        if config:
            cfg = tmp_path_factory.mktemp("input") / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert os.listdir(str(tmp_path)) == []
        assert capsys.readouterr().err == (
            f"gdlab: error: argument {flag}: expected a non-negative integer, got -1\n")

    @pytest.mark.parametrize("argv, config, message", [
        (["run", "gd", "--preset", "gaussian8", "--iters", "-1"], None,
         "argument --iters: expected a positive integer, got -1"),
        (["run", "gd", "--preset", "gaussian8"], {"iters": -1},
         "argument --iters: expected a positive integer, got -1"),
        (["run", "dgd", "--preset", "ring16", "--iters", "0"], None,
         "argument --iters: expected a positive integer, got 0"),
        (["run", "sgd", "--preset", "gaussian8", "--runs", "0"], None,
         "--runs must be >= 1 for run sgd: 0"),
        (["sweep", "m", "--preset", "orthonormal32", "--runs", "-1"], None,
         "argument --runs: expected a non-negative integer, got -1"),
        (["run", "dgd", "--n", "4", "--d", "4", "--kind", "gaussian", "--graph-kind", "grid",
          "--graph-rows", "-2", "--graph-cols", "-2"], None,
         "invalid graph spec: grid needs rows >= 1 and cols >= 1 with rows*cols == n, "
         "got -2x-2 for n=4"),
        (["sweep", "eta", "--preset", "gaussian8", "--values", "abc"], None,
         "--values: 'abc' is not a number"),
        (["sweep", "m", "--preset", "gaussian8", "--runs", "0", "--values", "2,abc"], None,
         "--values: 'abc' is not a number"),
        (["sweep", "mu", "--preset", "gaussian8", "--graph-kind", "ring", "--values", "1,x"],
         None, "--values: 'x' is not a number"),
        (["sweep", "eta", "--preset", "gaussian8"], {"values": ["x"]},
         "--values: 'x' is not a number"),
        (["run", "dgd", "--preset", "gaussian8", "--graph-kind", "ring", "--mu", "1e308"], None,
         "mu is too large for a positive stable step: mu=1e+308"),
        (["sweep", "mu", "--preset", "gaussian8", "--graph-kind", "ring", "--values", "1,1e308"],
         None, "mu is too large for a positive stable step: mu=1e+308"),
        (["spectrum", "--preset", "gaussian8", "--graph-kind", "ring", "--mu", "1e308"], None,
         "mu is too large for a positive stable step: mu=1e+308"),
    ], ids=["iters", "config-iters", "dgd-iters", "sgd-runs", "sweep-runs", "grid",
            "eta-values", "m-values", "mu-values", "config-values", "dgd-mu", "sweep-mu",
            "spectrum-mu"])
    def test_refusal_names_what_was_given(self, tmp_path, tmp_path_factory, capsys,
                                          argv, config, message):
        # these once surfaced as the library's field names (max_iters,
        # runs), for the grid as a graph that is not connected, for a
        # --values entry as float()'s message naming no option, and for a
        # mu whose stable step overflows to 0 as an eta the user never gave
        if config:
            cfg = tmp_path_factory.mktemp("input") / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert os.listdir(str(tmp_path)) == []
        assert capsys.readouterr().err == f"gdlab: error: {message}\n"

    def test_unconnectable_graph_is_refused_without_traceback(self, tmp_path):
        # make_graph's GraphConnectError was once a RuntimeError, which main
        # does not catch: the command ended in a traceback
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "gdlab.cli", "spectrum", "--n", "30", "--d", "2", "--kind",
             "gaussian", "--graph-kind", "erdos_renyi", "--graph-p", "1e-6", "--graph-seed", "1",
             "--mu", "1", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ("gdlab: error: no connected graph in 1000 attempts "
                               "(n=30, p=1e-06); try a larger p\n")
        assert not out.exists()

    def test_unreadable_config_is_validation_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["run", "gd", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1

    def test_unknown_preset(self, tmp_path):
        rc = main(["gen", "--preset", "nope", "--out", str(tmp_path)])
        assert rc == 1

    def test_missing_dataset_spec(self, tmp_path):
        rc = main(["run", "gd", "--out", str(tmp_path)])
        assert rc == 1

    def test_bad_flag_is_validation_failure(self, tmp_path):
        rc = main(["run", "gd", "--bogus-flag", "1"])
        assert rc == 1

    # each of --iters and --stop-tol: a value on the command line, in --config
    # and in the preset, each present or not
    @settings(max_examples=40, deadline=None)
    @given(st.fixed_dictionaries({
        "iters": st.tuples(*[st.none() | st.integers(1, 30)] * 3),
        "stop_tol": st.tuples(*[st.none() | st.floats(0.0, 1e-2)] * 3),
    }))
    def test_precedence_is_command_line_config_preset_default(self, placed):
        defaults = {"iters": 200, "stop_tol": 0.0}  # run gd's
        preset = {"dataset": dict(n=4, d=4, kind="gaussian", normalize=True, seed=1)}
        argv, config = ["run", "gd", "--preset", "probe"], {}
        for key, (line, in_config, in_preset) in placed.items():
            if line is not None:
                argv.append(f"--{key.replace('_', '-')}={line!r}")
            if in_config is not None:
                config[key] = in_config
            if in_preset is not None:
                preset[key] = in_preset
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(PRESETS, {"probe": preset}):
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            out = os.path.join(tmp, "out")
            assert main([*argv, "--config", path, "--out", out]) == 0
            recorded = read_summary(out)["config"]
        for key, values in placed.items():
            expected = next((v for v in values if v is not None), defaults[key])
            assert recorded[key] == expected, key

    def test_resolved_config_is_embedded(self, tmp_path):
        out = str(tmp_path)
        main(["run", "sgd", "--preset", "gaussian8", "--m", "2", "--runs", "2",
              "--iters", "10", "--seed", "9", "--out", out])
        cfg = read_summary(out)["config"]
        assert cfg["seed"] == 9
        assert cfg["m"] == 2.0
        assert cfg["eta"] is not None
        assert cfg["dataset_spec"]["seed"] == 80


D = ["--dataset", "--n", "--d", "--kind", "--rho", "--normalize", "--data-seed"]
G = ["--graph", "--graph-kind", "--graph-rows", "--graph-cols", "--graph-k", "--graph-p",
     "--graph-seed"]
RUN = D + ["--eta", "--iters", "--stop-tol", "--w0-seed", "--epsilon"]
SWEEP = D + ["--values", "--runs", "--iters", "--stop-tol"]
# the options of each variant besides --config --preset --out --seed
ACCEPTED = {
    ("gen",): D,
    ("theory",): D + ["--m", "--lambda1", "--lambdan", "--epsilon"],
    ("run", "gd"): RUN,
    ("run", "sgd"): RUN + ["--runs", "--m", "--sampler"],
    ("run", "dgd"): D + G + ["--eta", "--mu", "--iters", "--stop-tol", "--w0-seed"],
    ("sweep", "m"): SWEEP + ["--epsilon"],
    ("sweep", "eta"): SWEEP + ["--m"],
    ("sweep", "mu"): D + G + ["--values", "--eta", "--iters", "--stop-tol", "--w0-seed"],
    ("spectrum",): D + G + ["--eta", "--mu"],
}
GEN = ["--n", "4", "--d", "4", "--kind", "gaussian", "--normalize"]
# a successful run of each variant on a generated dataset, and a generated graph where it
# takes one (200 rounds to the cap: enough for the band check's fit)
READS_ARGV = {
    ("gen",): GEN,
    ("theory",): GEN + ["--m", "2", "--epsilon", "0.1"],
    ("run", "gd"): GEN + ["--iters", "5"],
    ("run", "sgd"): GEN + ["--m", "2", "--runs", "2", "--iters", "5"],
    ("run", "dgd"): GEN + ["--graph-kind", "ring", "--iters", "200", "--stop-tol", "0"],
    ("sweep", "m"): GEN + ["--values", "2", "--runs", "2", "--iters", "5"],
    ("sweep", "eta"): GEN + ["--values", "0.5", "--runs", "2", "--iters", "5"],
    ("sweep", "mu"): GEN + ["--graph-kind", "ring", "--values", "1", "--iters", "200",
                            "--stop-tol", "0"],
    ("spectrum",): GEN + ["--graph-kind", "ring"],
}


def variant_parsers(parser, words=()):
    """{variant words: parser} for every leaf command under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {words: parser}
    return {k: v for a in subs for name, p in a.choices.items()
            for k, v in variant_parsers(p, words + (name,)).items()}


def accepted(parser):
    return {a.option_strings[0] for a in parser._actions if a.option_strings} - {"-h"}


class TestOptionTable:
    def test_each_variant_takes_exactly_its_options(self):
        parsers = variant_parsers(build_parser())
        assert set(parsers) == set(ACCEPTED)
        common = {"--config", "--preset", "--out", "--seed"}
        for variant, options in ACCEPTED.items():
            assert accepted(parsers[variant]) == common | set(options), variant
        assert sum(len(accepted(p)) for p in parsers.values()) == 159

    def test_library_takes_exactly_its_settings(self):
        # the library's settable values, pinned as the CLI's options are
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "eta", "m", "sampler", "max_iters", "stop_tol", "seed", "w0"]
        assert list(inspect.signature(run_dgd).parameters) == [
            "ds", "g", "etas", "mus", "max_iters", "stop_tol", "W0"]
        # and the records of a run: an SGD trace keeps its seed, not its config
        assert [f.name for f in dataclasses.fields(IterationTrace)] == [
            "t", "err_sq_range", "loss", "batch_size", "status", "seed", "w_final"]
        assert [f.name for f in dataclasses.fields(DgdTrace)] == [
            "t", "mean_err_sq_range", "edge_spread", "global_spread", "penalized_loss",
            "status", "W_final"]

    @pytest.mark.parametrize("variant", [(), *ACCEPTED], ids=lambda v: "_".join(v) or "gdlab")
    def test_help_renders(self, capsys, variant):
        # argparse %-expands help strings only when it prints help; each
        # variant's help lists exactly the options it takes
        with pytest.raises(SystemExit) as exit_:
            main([*variant, "--help"])
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        if variant:
            options = {"--config", "--preset", "--out", "--seed", "--help", *ACCEPTED[variant]}
            if "--normalize" in options:
                options.add("--no-normalize")
            assert set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text)) == options
        else:
            assert text.startswith("usage: gdlab")

    def test_every_option_is_taken_by_a_variant(self):
        taken = set(cli._COMMON).union(*(names for _, _, names in cli._VARIANTS.values()))
        assert set(cli._OPTIONS) == taken

    @pytest.mark.parametrize("variant", sorted(READS_ARGV), ids="_".join)
    def test_each_accepted_option_is_read(self, tmp_path, monkeypatch, variant):
        reads = set()
        raw = cli._Resolver._raw

        def spy(self, key, default=None):
            reads.add(key)
            return raw(self, key, default)

        monkeypatch.setattr(cli._Resolver, "_raw", spy)
        assert main([*variant, *READS_ARGV[variant], "--out", str(tmp_path)]) in (0, 1)
        options = accepted(variant_parsers(build_parser())[variant]) - {"--config"}
        assert {"--" + key.replace("_", "-") for key in reads} == options

    @pytest.mark.parametrize("argv", [
        ["run", "dgd", "--preset", "ring16", "--runs", "100"],
        ["run", "dgd", "--preset", "ring16", "--m", "3"],
        ["spectrum", "--preset", "ring16", "--m", "3"],
        ["sweep", "m", "--preset", "orthonormal32", "--runs", "5", "--eta", "0.3",
         "--values", "4"],
        ["run", "sgd", "--preset", "gaussian8", "--mu", "5"],
        ["run", "sgd", "--preset", "gaussian8", "--run", "3"],  # no abbreviation of --runs
        # full-batch GD is deterministic: --runs N would write N identical traces
        ["run", "gd", "--preset", "gaussian8", "--runs", "2"],
        # sweep eta predicts no cost
        ["sweep", "eta", "--preset", "gaussian8", "--runs", "0", "--values", "0.5",
         "--epsilon", "0.01"],
        # every trace is CSV
        ["run", "gd", "--preset", "gaussian8", "--format", "json"],
        ["run", "sgd", "--preset", "gaussian8", "--format", "json"],
        ["run", "dgd", "--preset", "ring16", "--format", "json"],
        ["sweep", "mu", "--preset", "ring16", "--values", "1", "--format", "json"],
    ])
    def test_unread_flag_writes_nothing(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize("key", ["stop-tol", "fmt", "mu", "config", "format"])
    def test_config_key_must_name_an_option(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 0.001}))
        out = tmp_path / "out"
        assert main(["run", "sgd", "--preset", "gaussian8", "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_config_keys_are_long_names_with_underscores(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stop_tol": 0.001, "w0_seed": 3}))
        out = str(tmp_path / "out")
        assert main(["run", "sgd", "--preset", "gaussian8", "--runs", "2", "--iters", "5",
                     "--config", str(cfg), "--out", out]) == 0
        config = read_summary(out)["config"]
        assert (config["stop_tol"], config["w0_seed"]) == (0.001, 3)
        assert set(os.listdir(out)) == {"dataset.json", "run_000.csv", "run_001.csv",
                                        "mean.csv", "summary.json"}

    @pytest.mark.parametrize("argv, cfg", [
        (["gen", "--n", "4", "--d", "4", "--kind", "gaussian"], {"normalize": "false"}),
        (["run", "sgd", "--preset", "gaussian8"], {"sampler": "full"}),
        (["run", "gd", "--preset", "gaussian8"], {"iters": 12.5}),
    ])
    def test_config_values_are_parsed_as_flags(self, tmp_path, argv, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    def test_config_booleans_and_lists(self, tmp_path):
        # true/false stand for --name/--no-name, a list for a comma string;
        # the command line still wins
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"normalize": True, "values": [2, 4]}))
        argv = ["sweep", "m", "--n", "8", "--d", "8", "--kind", "gaussian", "--runs", "0",
                "--config", str(path)]
        out = str(tmp_path / "config")
        assert main([*argv, "--out", out]) == 0
        config = read_summary(out)["config"]
        assert (config["normalize"], config["values"]) == (True, [2.0, 4.0])
        assert config["dataset_spec"]["normalized"] is True
        out = str(tmp_path / "flags")
        assert main([*argv, "--no-normalize", "--values", "3", "--out", out]) == 0
        config = read_summary(out)["config"]
        assert (config["normalize"], config["values"]) == (False, [3.0])
        assert config["dataset_spec"]["normalized"] is False

    def test_readme_commands_parse(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            lines = re.findall(r"^gdlab (.*)$", fh.read(), flags=re.M)
        assert len(lines) >= 8
        for line in lines:
            build_parser().parse_args(shlex.split(line.split("#")[0]))

    def test_readme_option_lines_match_the_parser(self):
        # each "- `VARIANT`: ..." bullet's first sentence lists the variant's options as
        # D, G, "the `OTHER VARIANT` options" or a backquoted run of flags
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            section = fh.read().split("Each command takes exactly the options it reads", 1)[1]
        intro, block = section.split("\n\n")[:2]
        intro = " ".join(intro.split())

        def flags(pattern):
            return set(re.search(pattern + " `([^`]*)`", intro)[1].split())

        groups = {"D": flags("D stands for the dataset options"),
                  "G": flags("G for the graph options")}
        bullets = {}
        for item in re.split(r"^- ", block, flags=re.M)[1:]:
            name, body = re.fullmatch(r"`([^`]+)`: (.*)", " ".join(item.split())).groups()
            bullets[tuple(name.split())] = re.split(r"\.(?:\s|$)", body)[0]

        def options(variant):
            found = flags("Every one takes")
            for part in bullets[variant].split(", "):
                other = re.fullmatch(r"the `([^`]+)` options", part)
                listed = re.fullmatch(r"`([^`]+)`", part)
                if part in groups:
                    found |= groups[part]
                elif other:
                    found |= options(tuple(other[1].split()))
                else:
                    assert listed, (variant, part)
                    found |= set(listed[1].split())
            return found

        parsers = variant_parsers(build_parser())
        assert set(bullets) == set(parsers)
        for variant, parser in parsers.items():
            assert options(variant) == accepted(parser), variant


def verdicts(out):
    """summary.json's verdicts by name (a run's, which names each once)."""
    return {v["name"]: v for v in read_summary(out)["verdicts"]}


def listed_and_present(out):
    s = read_summary(out)
    return set(s["files"]), set(os.listdir(out)) - {"summary.json"}


class TestChecksAndStatuses:
    def test_band_check_requires_contraction(self, tmp_path):
        # the stable step for mu = 1e300 is ~1e-301, so the rate bounds sit at 1
        out = str(tmp_path)
        rc = main(["run", "dgd", "--preset", "ring16", "--mu", "1e300", "--iters", "50",
                   "--out", out])
        assert rc == 1
        dgd = read_summary(out)["dgd"]
        assert dgd["rate_lower"] == 1.0
        assert not verdicts(out)["contracting"]["ok"]

    @pytest.mark.parametrize("argv", [
        ["run", "dgd", "--mu", "2"],
        ["sweep", "mu", "--values", "2"],
    ])
    def test_diverging_dgd_exits_2(self, tmp_path, argv):
        out = str(tmp_path)
        assert main([*argv, "--preset", "gaussian8", "--graph-kind", "ring", "--eta", "0.3",
                     "--iters", "500", "--out", out]) == 2
        s = read_summary(out)
        status = s["empirical"]["status"] if argv[0] == "run" else s["rows"][0]["status"]
        assert status == "diverged"

    @pytest.mark.parametrize("argv", [
        ["sweep", "mu", "--preset", "gaussian8", "--graph-kind", "ring", "--values", "1,-1",
         "--iters", "50"],
        ["sweep", "m", "--preset", "orthonormal32", "--runs", "0", "--values", "4,0"],
        ["sweep", "m", "--preset", "orthonormal32", "--runs", "0", "--values", "4,40"],
        ["sweep", "eta", "--preset", "gaussian8", "--runs", "5", "--values", "0.5,-1"],
        ["theory", "--preset", "orthonormal32", "--m", "40"],
        ["sweep", "eta", "--preset", "gaussian8", "--runs", "0", "--values=-1,0"],
        ["sweep", "eta", "--preset", "gaussian8", "--runs", "0", "--values", "0.5,inf"],
        ["sweep", "eta", "--preset", "gaussian8", "--runs", "3", "--iters", "5",
         "--values", "0.5,0"],
        ["run", "gd", "--preset", "gaussian8", "--eta", "0"],
        ["run", "sgd", "--preset", "gaussian8", "--iters", "3", "--runs", "2", "--epsilon", "2"],
        # generation options with a preset's or a file's dataset
        ["gen", "--preset", "gaussian8", "--kind", "spiked"],
        ["gen", "--preset", "gaussian8", "--rho", "0.5"],
        ["gen", "--preset", "gaussian8", "--no-normalize"],
        ["gen", "--preset", "gaussian8", "--d", "4"],
        ["run", "gd", "--dataset", DATASET_FILE, "--kind", "orthonormal"],
        ["run", "gd", "--dataset", DATASET_FILE, "--n", "8"],
        ["sweep", "mu", "--dataset", DATASET_FILE, "--graph-kind", "ring", "--values", "1",
         "--iters", "50", "--normalize"],
        # a negative ensemble size, which is no ensemble and no prediction-only sweep
        ["sweep", "m", "--preset", "orthonormal32", "--runs", "-1", "--values", "4"],
        # a --stop-tol that is negative or not finite, in each variant that takes one
        *[[*argv, "--stop-tol", tol] for argv in (
            ["run", "gd", "--preset", "gaussian8", "--iters", "5"],
            ["run", "sgd", "--preset", "gaussian8", "--runs", "2", "--iters", "5"],
            ["run", "dgd", "--preset", "gaussian8", "--graph-kind", "ring", "--iters", "50"],
            ["sweep", "m", "--preset", "orthonormal32", "--runs", "0", "--values", "4"],
            ["sweep", "eta", "--preset", "gaussian8", "--runs", "2", "--iters", "5",
             "--values", "0.5"],
            ["sweep", "mu", "--preset", "gaussian8", "--graph-kind", "ring", "--values", "1",
             "--iters", "50"],
        ) for tol in ("-1", "inf", "nan")],
    ])
    def test_invalid_value_writes_nothing(self, tmp_path, tmp_path_factory, argv):
        # every value is checked before the first file is written
        dataset = tmp_path_factory.mktemp("input") / "dataset.json"
        dataset.write_text(dataset_to_json(build_dataset("gaussian8")))
        argv = [str(dataset) if a == DATASET_FILE else a for a in argv]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert os.listdir(str(tmp_path)) == []

    def test_failing_command_makes_no_out(self, tmp_path):
        out = tmp_path / "new"
        assert main(["run", "sgd", "--preset", "gaussian8", "--iters", "3", "--runs", "2",
                     "--epsilon", "2", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "sgd", "--preset", "gaussian8", "--runs", "2"],
        ["sweep", "m", "--preset", "orthonormal32", "--runs", "2", "--values", "2,8"],
    ])
    def test_bad_epsilon_is_refused_before_any_run(self, tmp_path, monkeypatch, argv):
        calls = []
        run_ensemble = cli.run_ensemble

        def counted(*args, **kwargs):
            calls.append(args)
            return run_ensemble(*args, **kwargs)

        monkeypatch.setattr(cli, "run_ensemble", counted)
        out = tmp_path / "out"
        assert main([*argv, "--epsilon", "2", "--out", str(out)]) == 1
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "dgd", "--preset", "gaussian8", "--graph-kind", "ring"],
        ["sweep", "mu", "--preset", "gaussian8", "--graph-kind", "ring", "--values", "0.5,5"],
    ])
    @pytest.mark.parametrize("bad", [["--iters", "0"], ["--stop-tol", "nan"]])
    def test_bad_stopping_is_refused_before_any_spectrum(self, tmp_path, monkeypatch, argv, bad):
        # the dense spectra can take seconds; a bad --iters or --stop-tol
        # once waited for all of them before run_dgd refused it
        calls = []
        spectrum = cli.dgd_operator_spectrum

        def counted(*args, **kwargs):
            calls.append(args)
            return spectrum(*args, **kwargs)

        monkeypatch.setattr(cli, "dgd_operator_spectrum", counted)
        out = tmp_path / "out"
        assert main([*argv, *bad, "--out", str(out)]) == 1
        assert calls == []
        assert not out.exists()

    RING = [[i, (i + 1) % 16] for i in range(16)]

    @pytest.mark.parametrize("edges, unread", [
        (RING + [[0, 20]], {}),                               # a node past n
        (RING + [[-1, 3]], {}),                               # once wrapped to node 15
        ([[i, i + 1] for i in range(15) if i != 7], {}),      # two paths of 8 nodes
        (RING, {"seed": 5}),                                  # a ring draws nothing
        (RING, {"params": {"p": 0.3}}),                       # a ring reads no p
        (RING, {"params": {"attempts": 1}}),                  # only erdos_renyi's draw records it
    ], ids=["edges0", "edges1", "edges2", "seed", "param", "attempts"])
    def test_bad_graph_file_is_refused(self, tmp_path, capsys, edges, unread):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"n": 16, "kind": "ring", "params": {}, "seed": 0,
                                     "edges": edges, **unread}))
        out = tmp_path / "out"
        assert main(["run", "dgd", "--preset", "ring16", "--graph", str(graph),
                     "--out", str(out)]) == 1
        assert "gdlab: error: invalid graph spec" in capsys.readouterr().err
        assert not out.exists()

    DS = json.loads(dataset_to_json(gen_dataset(2, 3, "gaussian", seed=1)))

    @pytest.mark.parametrize("argv, doc, message", [
        (["run", "dgd", "--preset", "ring16", "--graph"], [], "invalid graph spec: not a JSON object"),
        (["run", "dgd", "--preset", "ring16", "--graph"], {"n": 8},
         "invalid graph spec: missing kind, params, seed, edges"),
        (["run", "gd", "--dataset"], {}, "invalid dataset file: missing n, d, kind, seed, X, y"),
        (["gen", "--dataset"], {**DS, "y": DS["y"][:1]}, "y (1,)"),
        (["run", "gd", "--dataset"], {**DS, "y": DS["y"][:1]}, "y (1,)"),
        (["run", "gd", "--dataset"], {**DS, "w_star": DS["w_star"][:2]}, "w_star (2,)"),
        (["run", "gd", "--dataset"], {**DS, "X": [[math.nan, 1.0, 2.0], DS["X"][1]]},
         "invalid dataset file: X, y and w_star must be finite"),
        (["run", "gd", "--dataset"], {**DS, "y": [DS["y"][0] + 1e-9, DS["y"][1]]},
         "invalid dataset file: w_star does not fit the labels"),
        (["run", "dgd", "--preset", "ring16", "--graph"],
         {"n": 16.7, "kind": "ring", "params": {}, "seed": 0, "edges": RING},
         "invalid graph spec: n must be an integer, got 16.7"),
        (["run", "dgd", "--preset", "ring16", "--graph"],
         {"n": 16, "kind": "ring", "params": {}, "seed": 0.9, "edges": RING},
         "invalid graph spec: seed must be an integer, got 0.9"),
        (["run", "dgd", "--preset", "ring16", "--graph"],
         {"n": 16, "kind": "ring", "params": {}, "seed": False, "edges": RING},
         "invalid graph spec: seed must be an integer, got False"),
        (["run", "dgd", "--preset", "ring16", "--graph"],
         {"n": 16, "kind": "ring", "params": {}, "seed": 0, "edges": [[0.6, 1]] + RING[1:]},
         "invalid graph spec: an endpoint must be an integer, got 0.6"),
        (["run", "dgd", "--preset", "ring16", "--graph"],
         {"n": 16, "kind": "ring", "params": {}, "seed": 0, "edges": RING + [[1, 0]]},
         "invalid graph spec: edge [1, 0] repeats edge [0, 1]"),
        (["run", "gd", "--dataset"], {**DS, "seed": True},
         "invalid dataset file: seed must be an integer, got True"),
        (["run", "gd", "--dataset"], {**DS, "seed": 2.5},
         "invalid dataset file: seed must be an integer, got 2.5"),
        (["run", "gd", "--dataset"], {**DS, "n": 2.0},
         "invalid dataset file: n must be an integer, got 2.0"),
        (["run", "gd", "--dataset"], {**DS, "d": 3.5},
         "invalid dataset file: d must be an integer, got 3.5"),
    ], ids=["graph-list", "graph-n-only", "dataset-empty", "gen-short-y", "short-y",
            "short-w_star", "nan", "unfit-labels", "graph-n-float", "graph-seed-float",
            "graph-seed-bool", "graph-endpoint-float", "graph-repeated-edge",
            "dataset-seed-bool", "dataset-seed-float", "dataset-n-float", "dataset-d-float"])
    def test_malformed_input_file_is_refused(self, tmp_path, capsys, argv, doc, message):
        # each once ended in a traceback, a numpy error, or a run on the file;
        # a float or boolean n, d, seed or endpoint once loaded truncated by
        # int(): a 16-node ring with seed 0 and edge (0, 1), a dataset with
        # seed 1 or 2
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([*argv, str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gdlab: error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["ring", "complete"])
    def test_graph_file_of_a_known_kind_with_other_edges_is_refused(self, tmp_path, capsys,
                                                                   kind):
        # a 4-node path labelled ring or complete once ran, recorded as that
        # kind with 3 edges; labelled custom, it runs as the path
        path, out = tmp_path / "g.json", tmp_path / "out"
        doc = {"n": 4, "kind": kind, "params": {}, "seed": 0, "edges": [[0, 1], [1, 2], [2, 3]]}
        argv = ["spectrum", "--n", "4", "--d", "2", "--kind", "gaussian", "--graph", str(path),
                "--out", str(out)]
        path.write_text(json.dumps(doc))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gdlab: error: invalid graph spec: the file's edges or params "
                              f"differ from the {kind} graph on n=4")
        assert not out.exists()
        path.write_text(json.dumps({**doc, "kind": "custom"}))
        assert main(argv) == 0
        spec = json.loads((out / "summary.json").read_text())["config"]["graph_spec"]
        assert (spec["kind"], spec["edges"]) == ("custom", 3)

    @pytest.mark.parametrize("argv, flag", [
        (["theory", "--n", "4", "--lambda1", "1", "--lambdan", "0.5", "--d", "-5",
          "--epsilon", "0.1"], "--d must be >= 1"),
        (["theory", "--n", "4", "--lambda1", "1", "--lambdan", "0.5", "--d", "0",
          "--epsilon", "0.1"], "--d must be >= 1"),
        (["gen", "--n", "4", "--d", "4", "--kind", "gaussian", "--rho", "0.5"],
         "rho is read only by the spiked kind"),
        (["spectrum", "--preset", "gaussian8", "--graph-kind", "ring", "--graph-p", "0.3",
          "--graph-k", "2", "--graph-rows", "2", "--graph-cols", "4"],
         "invalid graph spec: ring reads no rows=2, cols=4, k=2, p=0.3"),
        (["spectrum", "--preset", "ring16", "--graph", "<a graph file>", "--graph-kind",
          "complete", "--graph-seed", "4", "--graph-p", "0.5"], "--graph-kind applies only"),
        (["spectrum", "--preset", "ring16", "--graph", "<a graph file>", "--graph-seed", "4"],
         "--graph-seed applies only"),
        (["spectrum", "--preset", "ring16", "--graph-seed", "5"], "--graph-seed applies only"),
        (["run", "dgd", "--preset", "ring16", "--graph-k", "2"], "--graph-k applies only"),
        (["spectrum", "--preset", "gaussian8", "--graph-kind", "ring", "--graph-seed", "5"],
         "invalid graph spec: ring reads no seed=5"),
        # an --n below 1 is named, not the --m that defaults to it
        (["theory", "--n", "0", "--lambda1", "1", "--lambdan", "0.5"], "--n must be >= 1: 0"),
        (["theory", "--n", "-3", "--m", "1", "--lambda1", "1", "--lambdan", "0.5"],
         "--n must be >= 1: -3"),
        # a NaN once passed every comparison, so the message named no input:
        # "rate prediction out of range: eta=nan, g=nan", or a failed write
        # of the NaN spectrum
        (["theory", "--n", "4", "--lambda1", "3", "--lambdan", "1", "--m", "nan"],
         "mean batch size must lie in (0, n]: m=nan"),
        (["sweep", "m", "--preset", "gaussian8", "--values", "nan", "--runs", "0"],
         "mean batch size must lie in (0, n]: m=nan"),
        (["theory", "--n", "4", "--lambda1", "nan", "--lambdan", "1"],
         "invalid spectrum: need 0 < lambdan <= lambda1 < inf, got lambda1=nan"),
        (["theory", "--n", "4", "--lambda1", "inf", "--lambdan", "1"],
         "invalid spectrum: need 0 < lambdan <= lambda1 < inf, got lambda1=inf"),
        (["theory", "--n", "4", "--lambda1", "3", "--lambdan", "nan"],
         "invalid spectrum: need 0 < lambdan <= lambda1 < inf, got lambda1=3.0, lambdan=nan"),
        # this m passes the (0, n] rule, but its g* rounds to 1; the message
        # once read "rate prediction out of range: eta=1e-200, g=1.0"
        (["run", "sgd", "--preset", "gaussian8", "--m", "1e-200"],
         "--m 1e-200: rate prediction out of range at m=1e-200, lambda1="),
        (["sweep", "m", "--preset", "gaussian8", "--values", "1e-200"],
         "--values 1e-200: rate prediction out of range at m=1e-200, lambda1="),
    ])
    def test_unread_value_is_refused(self, tmp_path, capsys, argv, flag):
        # a value the command would ignore, or misuse, exits 1 and names it
        graph = tmp_path / "graph.json"
        graph.write_text(graph_to_json(make_graph("ring", 16)))
        out = tmp_path / "out"
        argv = [str(graph) if a == "<a graph file>" else a for a in argv]
        assert main([*argv, "--out", str(out)]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_status_column(self, tmp_path):
        out = str(tmp_path)
        rc = main(["sweep", "mu", "--preset", "gaussian8", "--graph-kind", "ring",
                   "--values", "0.5,5", "--iters", "4000", "--w0-seed", "2", "--out", out])
        assert rc == 0
        lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert lines[0].endswith(",r_hat_norm,converged,contracting,rate_band,spectral_match,status")
        assert [ln.rsplit(",", 1)[1] for ln in lines[1:]] == ["max-iters", "max-iters"]
        assert [r["status"] for r in read_summary(out)["rows"]] == ["max-iters", "max-iters"]

    def test_band_check_requires_convergence_under_stop_tol(self, tmp_path):
        # 4000 rounds at a rate near 0.9999 stop at the cap, far from 1e-16
        common = ["--preset", "gaussian8", "--graph-kind", "ring", "--iters", "4000",
                  "--w0-seed", "2", "--stop-tol", "1e-16"]
        out = str(tmp_path / "sweep")
        assert main(["sweep", "mu", *common, "--values", "0.5,5", "--out", out]) == 1
        rows = read_summary(out)["rows"]
        assert [(r["status"], r["converged"]) for r in rows] == [("max-iters", "fail")] * 2
        out = str(tmp_path / "run")
        assert main(["run", "dgd", *common, "--mu", "5", "--out", out]) == 1
        s = read_summary(out)
        assert s["empirical"]["status"] == "max-iters"
        assert not verdicts(out)["converged"]["ok"]

    def test_max_iters_under_stop_tol_fails_converged_alone(self, tmp_path):
        # cut at its cap far from 1e-16, the run still contracts at a rate
        # inside the band: converged fails, with a negative margin, and
        # nothing else does
        out = str(tmp_path)
        assert main(["run", "dgd", "--preset", "gaussian8", "--graph-kind", "ring", "--mu", "5",
                     "--iters", "4000", "--w0-seed", "2", "--stop-tol", "1e-16",
                     "--out", out]) == 1
        checks = verdicts(out)
        assert [name for name, v in checks.items() if not v["ok"]] == ["converged"]
        assert checks["converged"]["margin"] < 0 < checks["rate_band"]["margin"]

    @pytest.mark.parametrize("argv", [
        ["run", "dgd", "--preset", "ring16", "--mu", "1e300", "--iters", "50"],
        ["sweep", "mu", "--preset", "gaussian8", "--graph-kind", "ring", "--values", "0.5,5",
         "--iters", "4000", "--w0-seed", "2", "--stop-tol", "1e-16"],
    ])
    def test_each_failed_verdict_prints_its_margin(self, tmp_path, capsys, argv):
        out = str(tmp_path)
        assert main([*argv, "--out", out]) == 1
        lines = capsys.readouterr().err.splitlines()
        failed = [v for v in read_summary(out)["verdicts"] if not v["ok"]]
        assert len(lines) == len(failed) == 2
        for line, v in zip(lines, failed):
            row = f" (row {v['row']})" if "row" in v else ""
            assert line.startswith(f"gdlab: check {v['name']}{row} failed: ")
            assert line.endswith(f", margin {dumps(v['margin'])}")

    def test_failed_check_prints_numbers_as_the_summary_holds_them(self, tmp_path, capsys):
        # 17 significant digits: 1e-16 reads 9.9999999999999998e-17, as in summary.json
        out = str(tmp_path)
        assert main(["run", "dgd", "--preset", "ring16", "--eta", "1e-20", "--mu", "1",
                     "--iters", "50", "--out", out]) == 1
        failed = [v for v in read_summary(out)["verdicts"] if not v["ok"]]
        assert capsys.readouterr().err.splitlines() == [
            f"gdlab: check {v['name']} failed: observed {dumps(v['observed'])}, "
            f"bound {dumps(v['bound'])}, margin {dumps(v['margin'])}" for v in failed]

    def test_skipped_spectrum_has_no_spectral_match(self, tmp_path):
        # n * d = 4480 is past the dense guard
        common = ["--n", "70", "--d", "64", "--kind", "gaussian", "--normalize",
                  "--graph-kind", "ring", "--iters", "50", "--stop-tol", "0"]
        out = str(tmp_path / "run")
        main(["run", "dgd", *common, "--out", out])
        assert read_summary(out)["dgd"]["skipped"] is True
        assert list(verdicts(out)) == ["converged", "contracting", "rate_band"]
        out = str(tmp_path / "sweep")
        main(["sweep", "mu", *common, "--values", "1", "--out", out])
        [row] = read_summary(out)["rows"]
        assert row["spectral_match"] is None
        assert "spectral_match" not in {v["name"] for v in read_summary(out)["verdicts"]}

    def test_spectral_match_gates_the_exit(self, tmp_path, monkeypatch):
        # a round-operator rate 2% off fails spectral_match alone
        spectrum = cli.dgd_operator_spectrum

        def off(*args):
            sp = spectrum(*args)
            return dataclasses.replace(sp, rate_spectral=0.98 * sp.rate_spectral)

        monkeypatch.setattr(cli, "dgd_operator_spectrum", off)
        out = str(tmp_path)
        assert main(["run", "dgd", "--preset", "gaussian8", "--graph-kind", "ring", "--mu", "1",
                     "--iters", "20000", "--w0-seed", "5", "--out", out]) == 1
        assert [name for name, v in verdicts(out).items() if not v["ok"]] == ["spectral_match"]

    def test_zero_start_spread_is_measured_against_its_peak(self, tmp_path):
        out = str(tmp_path)
        main(["run", "dgd", "--preset", "gaussian8", "--graph-kind", "ring", "--mu", "1",
              "--iters", "300", "--stop-tol", "0", "--out", out])
        spread = np.loadtxt(os.path.join(out, "trace.csv"), delimiter=",", skiprows=1)[:, 3]
        assert spread[0] == 0.0 < spread.max()
        assert read_summary(out)["empirical"]["final_spread_rel"] == spread[-1] / spread.max()

    @pytest.mark.parametrize("argv", [
        ["run", "gd", "--iters", "5"],
        ["run", "sgd", "--iters", "5", "--eta", "0.5", "--m", "2"],
        ["theory"],
        ["sweep", "m", "--runs", "0", "--values", "1,2"],
    ])
    def test_zero_row_leaves_the_norm_factor_null(self, tmp_path, argv):
        # the orthogonal bound and the cost scaling need every row norm
        # positive; the rest of the prediction does not
        dataset = zero_row_dataset(tmp_path / "zero_row.json")
        out = str(tmp_path / "out")
        assert main([*argv, "--dataset", dataset, "--epsilon", "0.01", "--out", out]) == 0
        s = read_summary(out)
        for block in s["rows"] if "rows" in s else [s["theory"] | s["cost"]]:
            assert block["cost_scaling"] is None
            assert block["t_eps"] > 0
            assert block.get("g_orthogonal_bound") is None
            assert 0 < block["g_opt"] < 1

    def test_n_with_preset_names_generation(self, tmp_path, capsys):
        assert main(["gen", "--preset", "ring16", "--n", "4", "--out", str(tmp_path)]) == 1
        assert ("--n with --preset asks for a generated dataset, which also needs --d and --kind"
                in capsys.readouterr().err)

    def test_ensemble_fit_stops_before_the_noisy_tail(self, tmp_path):
        # the exact mean contraction is 1 - m/n = 0.75; past the window's end
        # the mean rests on a few runs that still carry error
        out = str(tmp_path)
        assert main(["run", "sgd", "--preset", "orthonormal32", "--m", "8",
                     "--runs", "2500", "--seed", "5", "--out", out]) == 0
        emp = read_summary(out)["empirical"]
        assert abs(emp["g_hat"] - 0.75) <= 0.01
        assert emp["fit_window"][0] == 5

    def test_overflowing_step_is_diverged(self, tmp_path):
        out = str(tmp_path)
        rc = main(["run", "sgd", "--preset", "gaussian8", "--eta", "1e200", "--runs", "2",
                   "--iters", "20", "--out", out])
        assert rc == 2
        assert read_summary(out)["empirical"]["statuses"] == {"diverged": 2}
        listed, present = listed_and_present(out)
        assert listed == present == {"dataset.json", "run_000.csv", "run_001.csv", "mean.csv"}

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_non_finite_eta_is_validation_failure(self, tmp_path, capsys, eta):
        # rejected up front, before any file is written
        rc = main(["run", "sgd", "--preset", "gaussian8", "--eta", eta, "--runs", "2",
                   "--iters", "20", "--out", str(tmp_path)])
        assert rc == 1
        assert "must be positive and finite" in capsys.readouterr().err
        assert os.listdir(str(tmp_path)) == []

    def test_default_eta_needs_unit_norm_rows(self, tmp_path, capsys):
        # cond4x16 rows have squared norms 6 to 11; eta* = 1.315 assumes unit
        # norms and diverged every run
        out = str(tmp_path / "sgd")
        assert main(["run", "sgd", "--preset", "cond4x16", "--m", "3", "--out", out]) == 1
        assert "--eta" in capsys.readouterr().err
        assert not os.path.exists(out)
        out = str(tmp_path / "eta")
        assert main(["run", "sgd", "--preset", "cond4x16", "--m", "3", "--eta", "0.05",
                     "--runs", "4", "--iters", "20", "--out", out]) == 0
        out = str(tmp_path / "gd")
        assert main(["run", "gd", "--preset", "cond4x16", "--iters", "20", "--out", out]) == 0

    def test_sweep_m_needs_unit_norm_rows(self, tmp_path, capsys):
        # measured points run at eta*; on cond4x16 the m = 3 point diverged
        out = str(tmp_path / "measured")
        argv = ["sweep", "m", "--preset", "cond4x16", "--values", "3,8,16"]
        assert main(argv + ["--runs", "20", "--out", out]) == 1
        assert "--runs 0" in capsys.readouterr().err
        assert not os.path.exists(out)
        out = str(tmp_path / "predicted")
        assert main(argv + ["--runs", "0", "--out", out]) == 0
        assert len(read_summary(out)["rows"]) == 3

    def test_rerun_removes_stale_files(self, tmp_path):
        out = str(tmp_path)
        base = ["run", "sgd", "--preset", "gaussian8", "--iters", "5", "--out", out]
        assert main(base + ["--runs", "3"]) == 0
        assert os.path.exists(os.path.join(out, "run_002.csv"))
        assert main(base + ["--runs", "2"]) == 0
        listed, present = listed_and_present(out)
        assert listed == present
        assert "run_002.csv" not in present
        assert main(base + ["--runs", "1"]) == 0
        listed, present = listed_and_present(out)
        assert listed == present == {"dataset.json", "run_000.csv"}

    def test_data_seed_with_preset_is_rejected(self, tmp_path):
        rc = main(["gen", "--preset", "ring16", "--data-seed", "5", "--out", str(tmp_path)])
        assert rc == 1
        assert not os.path.exists(os.path.join(str(tmp_path), "dataset.json"))


# a failing run of each variant, which fails after its inputs are read
FAILS_ARGV = {
    ("gen",): ["--n", "8", "--d", "4", "--kind", "orthonormal"],
    ("theory",): ["--preset", "orthonormal32", "--m", "40"],
    ("run", "gd"): ["--preset", "gaussian8", "--eta", "0"],
    ("run", "sgd"): ["--preset", "gaussian8", "--iters", "3", "--runs", "2", "--epsilon", "2"],
    ("run", "dgd"): ["--preset", "ring16", "--mu", "-1"],
    ("sweep", "m"): ["--preset", "orthonormal32", "--runs", "0", "--values", "4,0"],
    ("sweep", "eta"): ["--preset", "gaussian8", "--runs", "5", "--values", "0.5,-1"],
    ("sweep", "mu"): ["--preset", "gaussian8", "--graph-kind", "ring", "--values", "1,-1",
                      "--iters", "50"],
    ("spectrum",): ["--preset", "ring16", "--mu", "0"],
}


def snapshot(out):
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


class TestOutput:
    """summary.json lists exactly the files in --out, and a failing command
    leaves --out as it was."""

    @pytest.mark.parametrize("variant", sorted(READS_ARGV), ids="_".join)
    def test_summary_lists_the_directory(self, tmp_path, variant):
        out = str(tmp_path)
        assert main([*variant, *READS_ARGV[variant], "--out", out]) == 0
        listed, present = listed_and_present(out)
        assert listed == present
        # every summary has a verdict list; only the DGD runs check anything yet
        names = [v["name"] for v in read_summary(out)["verdicts"]]
        assert names == (list(cli._DGD_VERDICTS) if variant[-1] in ("dgd", "mu") else [])

    @pytest.mark.parametrize("variant", sorted(FAILS_ARGV), ids="_".join)
    def test_failing_command_leaves_out_unchanged(self, tmp_path, variant):
        out = str(tmp_path)
        assert main([*variant, *READS_ARGV[variant], "--seed", "3", "--out", out]) == 0
        before = snapshot(out)
        assert main([*variant, *FAILS_ARGV[variant], "--out", out]) == 1
        assert snapshot(out) == before


class TestOneCurvatureSolve:
    """Every command solves H once, however many runs or sweep points it has."""

    def count_solves(self, monkeypatch, argv, d):
        import gdlab.problem

        calls = {"spectral_summary": 0, "eigensolves_of_H": 0}
        summary = gdlab.problem.spectral_summary

        def counted_summary(*args, **kwargs):
            calls["spectral_summary"] += 1
            return summary(*args, **kwargs)

        def counted(solver):
            def wrapper(a, *args, **kwargs):
                calls["eigensolves_of_H"] += np.shape(a) == (d, d)
                return solver(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(gdlab.problem, "spectral_summary", counted_summary)
        monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
        assert main(argv) == 0
        return calls

    def test_sgd_ensemble(self, tmp_path, monkeypatch):
        calls = self.count_solves(monkeypatch, ["run", "sgd", "--preset", "gaussian8",
                                                "--runs", "5", "--out", str(tmp_path)], d=8)
        assert calls == {"spectral_summary": 1, "eigensolves_of_H": 1}

    def test_mu_sweep(self, tmp_path, monkeypatch):
        argv = ["sweep", "mu", "--preset", "gaussian8", "--graph-kind", "ring",
                "--values", "0.5,5", "--out", str(tmp_path)]
        calls = self.count_solves(monkeypatch, argv, d=8)
        assert calls == {"spectral_summary": 1, "eigensolves_of_H": 1}
