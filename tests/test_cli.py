"""Tests for the command-line experiment runner."""

import argparse
import dataclasses
import json
import math
import os
import re
import shlex
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdlab import cli
from gdlab.cli import build_parser, main
from gdlab.io import dumps
from gdlab.presets import PRESETS, build_dataset
from gdlab.problem import dataset_from_rows, dataset_to_json, gen_dataset, load_dataset

DATASET_FILE = "<a dataset file>"  # stands for a dataset file the test writes


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

    def test_json_trace_format(self, tmp_path):
        out = str(tmp_path)
        rc = main(["run", "gd", "--preset", "gaussian8", "--iters", "10",
                   "--format", "json", "--out", out])
        assert rc == 0
        doc = json.load(open(os.path.join(out, "run_000.json")))
        assert doc["status"] == "max-iters"
        assert len(doc["t"]) == 11


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

    def test_sweep_eta_with_measurement(self, tmp_path):
        out = str(tmp_path)
        rc = main(["sweep", "eta", "--preset", "gaussian8", "--m", "2",
                   "--values", "0.2,0.5", "--runs", "10", "--iters", "25", "--out", out])
        assert rc == 0
        s = read_summary(out)
        assert len(s["rows"]) == 2
        assert all(r["g_hat_measured"] is not None for r in s["rows"])

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

    def test_rate_lower_meets_sigma_min_at_large_mu(self, tmp_path):
        # at fixed eta, sigma_min / (eta lambda_min_nz(H)) -> 1 as mu grows (0.99986
        # on ring16 at mu = 1e4), so rate_lower = 1 - eta lambda_min_nz(H) is pinned
        # by the spectrum from below and from above
        out = str(tmp_path)
        assert main(["spectrum", "--preset", "ring16", "--eta", "0.05", "--mu", "1e4",
                     "--out", out]) == 0
        dgd = read_summary(out)["dgd"]
        assert 0.999 <= dgd["sigma_min"] / (1.0 - dgd["rate_lower"]) <= 1.0 + 1e-8


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
RUN = D + ["--eta", "--iters", "--stop-tol", "--w0-seed", "--epsilon", "--format"]
SWEEP = D + ["--values", "--runs", "--iters", "--stop-tol", "--epsilon"]
# the options of each variant besides --config --preset --out --seed
ACCEPTED = {
    ("gen",): D,
    ("theory",): D + ["--m", "--lambda1", "--lambdan", "--epsilon"],
    ("run", "gd"): RUN,
    ("run", "sgd"): RUN + ["--runs", "--m", "--sampler"],
    ("run", "dgd"): D + G + ["--eta", "--mu", "--iters", "--stop-tol", "--w0-seed", "--format"],
    ("sweep", "m"): SWEEP,
    ("sweep", "eta"): SWEEP + ["--m"],
    ("sweep", "mu"): D + G + ["--values", "--eta", "--iters", "--stop-tol", "--w0-seed",
                              "--format"],
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
        assert sum(len(accepted(p)) for p in parsers.values()) == 164

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
    ])
    def test_unread_flag_writes_nothing(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize("key", ["stop-tol", "fmt", "mu", "config"])
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
        cfg.write_text(json.dumps({"stop_tol": 0.001, "format": "json"}))
        out = str(tmp_path / "out")
        assert main(["run", "sgd", "--preset", "gaussian8", "--runs", "2", "--iters", "5",
                     "--config", str(cfg), "--out", out]) == 0
        config = read_summary(out)["config"]
        assert (config["stop_tol"], config["format"]) == (0.001, "json")
        assert set(os.listdir(out)) == {"dataset.json", "run_000.json", "run_001.json",
                                        "mean.json", "summary.json"}

    @pytest.mark.parametrize("argv, cfg", [
        (["gen", "--n", "4", "--d", "4", "--kind", "gaussian"], {"normalize": "false"}),
        (["run", "gd", "--preset", "gaussian8"], {"format": "xml"}),
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
        assert main(base + ["--runs", "2", "--format", "json"]) == 0
        listed, present = listed_and_present(out)
        assert listed == present == {"dataset.json", "run_000.json", "run_001.json", "mean.json"}

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
