"""Command-line experiment runner.

Subcommands
    gen       generate a dataset and its spectral summary
    theory    closed-form rate/cost predictions for a batch size
    run       gd | sgd | dgd experiment with trace files and a summary
    sweep     m | eta | mu one row per parameter value, predicted vs measured
    spectrum  dense round-operator spectrum for a distributed configuration

All outputs land in --out: dataset.json / graph.json inputs, one CSV per run
plus mean.csv for ensembles, and summary.json embedding the fully resolved
configuration (every seed explicit).  Identical configuration and master seed
reproduce byte-identical files.  Numeric output carries 17 significant digits.

A JSON config file (--config) supplies any long-option value by name; values
given on the command line win.  Exit status: 0 success, 1 validation failure
(or a failed band check of run dgd or sweep mu, after every file is
written), 2 diverged runs.

Penalty convention for dgd, shared with gdlab.distributed, which takes --mu
unchanged: mu weighs the penalty in sum_i (x_i . w_i - y_i)^2 + mu sum_<i,j>
|w_i - w_j|^2 (the penalized_loss trace column), and a round applies the
coupling eta * mu (reported as mu_iter).  The default eta, min(0.5/max|x|^2,
1/(max|x|^2 + 2 mu maxdeg)), keeps the round stable for any mu.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import presets as presets_mod
from .distributed import (
    dgd_operator_spectrum,
    graph_to_json,
    load_graph,
    make_graph,
    run_dgd,
    stability_bound,
    stable_eta,
)
from .io import atomic_write_text, csv_text, dumps
from .problem import ROW_NORM_TOL, dataset_to_json, gen_dataset, load_dataset
from .solvers import (
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_MAX_ITERS,
    SolverConfig,
    default_fit_window,
    estimate_rate,
    run_ensemble,
)
from .theory import cost_model, g_eigen, gm_am_factor, optimal_rate, orthogonal_rate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DIVERGED = 2

_STATUS_WORST_FIRST = (STATUS_DIVERGED, STATUS_MAX_ITERS, STATUS_CONVERGED)
_FIT_MAX_REL_SE = 0.05
_SOLVER_COLUMNS = ("t", "err_sq_range", "loss", "batch_size")
_DGD_COLUMNS = ("t", "mean_err_sq_range", "edge_spread", "global_spread", "penalized_loss")


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; validation failures are 1
        raise CliError(message)


def _add_common(p):
    p.add_argument("--config", help="JSON file supplying option values by name")
    p.add_argument("--preset", help="named preset: " + ", ".join(presets_mod.preset_names()))
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--format", choices=["csv", "json"], dest="fmt", help="trace file format")


def _add_dataset_opts(p):
    p.add_argument("--dataset", help="path to a dataset JSON file")
    p.add_argument("--n", type=int, help="sample count")
    p.add_argument("--d", type=int, help="parameter dimension")
    p.add_argument("--kind", choices=["orthonormal", "gaussian", "spiked"], help="dataset kind")
    p.add_argument("--rho", type=float, help="spiked correlation in [0,1)")
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=None,
                   help="rescale rows to unit norm")
    p.add_argument("--data-seed", type=int, help="dataset generation seed (default: master seed)")


def _add_graph_opts(p):
    p.add_argument("--graph", help="path to a graph JSON file")
    p.add_argument("--graph-kind",
                   choices=["complete", "ring", "path", "grid", "k_ring", "erdos_renyi"])
    p.add_argument("--graph-rows", type=int)
    p.add_argument("--graph-cols", type=int)
    p.add_argument("--graph-k", type=int)
    p.add_argument("--graph-p", type=float)
    p.add_argument("--graph-seed", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="gdlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset")
    _add_common(p)
    _add_dataset_opts(p)

    p = sub.add_parser("theory", help="closed-form predictions")
    _add_common(p)
    _add_dataset_opts(p)
    p.add_argument("--m", type=float, help="mean batch size (default n)")
    p.add_argument("--lambda1", type=float, help="largest nonzero eigenvalue")
    p.add_argument("--lambdan", type=float, help="smallest nonzero eigenvalue")
    p.add_argument("--epsilon", type=float, help="target relative error for the cost model")

    p = sub.add_parser("run", help="run a solver experiment")
    p.add_argument("solver", choices=["gd", "sgd", "dgd"])
    _add_common(p)
    _add_dataset_opts(p)
    _add_graph_opts(p)
    p.add_argument("--eta", type=float, help="learning rate (default: optimal/stable)")
    p.add_argument("--m", type=float, help="mean batch size (sgd)")
    p.add_argument("--sampler", choices=["bernoulli", "fixed"], help="sgd sampler")
    p.add_argument("--runs", type=int, help="ensemble size (gd/sgd)")
    p.add_argument("--iters", type=int, help="iteration cap")
    p.add_argument("--stop-tol", type=float, help="relative stopping tolerance (0 = never)")
    p.add_argument("--mu", type=float, help="consensus penalty weight (dgd)")
    p.add_argument("--w0-seed", type=int, help="seed for a random initial state (default: zeros)")
    p.add_argument("--epsilon", type=float, help="target relative error for the cost model")

    p = sub.add_parser("sweep", help="sweep one parameter")
    p.add_argument("param", choices=["m", "eta", "mu"])
    _add_common(p)
    _add_dataset_opts(p)
    _add_graph_opts(p)
    p.add_argument("--values", help="comma-separated parameter values")
    p.add_argument("--eta", type=float, help="learning rate (eta/mu sweeps)")
    p.add_argument("--m", type=float, help="mean batch size (eta sweep)")
    p.add_argument("--runs", type=int, help="measured ensemble size per point (0 = predictions only)")
    p.add_argument("--iters", type=int)
    p.add_argument("--stop-tol", type=float)
    p.add_argument("--w0-seed", type=int)
    p.add_argument("--epsilon", type=float)

    p = sub.add_parser("spectrum", help="distributed round-operator spectrum")
    _add_common(p)
    _add_dataset_opts(p)
    _add_graph_opts(p)
    p.add_argument("--eta", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--w0-seed", type=int)

    return parser


# ---------------------------------------------------------------- resolution

def _load_config_file(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"unreadable config file {path}: {exc}")
    if not isinstance(doc, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return doc


class _Resolver:
    """Precedence: command line > config file > preset > hard default."""

    def __init__(self, args):
        self.args = args
        self.file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
        preset_name = self._raw("preset")
        self.preset = presets_mod.get_preset(preset_name) if preset_name else {}
        self.preset_name = preset_name
        self.resolved: dict = {"command": args.command}
        if getattr(args, "solver", None):
            self.resolved["solver"] = args.solver
        if getattr(args, "param", None):
            self.resolved["param"] = args.param
        self.resolved["preset"] = preset_name

    def _raw(self, key, default=None):
        v = getattr(self.args, key, None)
        if v is None:
            v = self.file_cfg.get(key)
        return default if v is None else v

    def get(self, key, default=None, record=True):
        v = self._raw(key, self.preset.get(key))
        if v is None:
            v = default
        if record:
            self.resolved[key] = v
        return v

    def dataset(self):
        path = self._raw("dataset")  # never a preset value: presets hold generation specs
        self.resolved["dataset"] = path
        seed = self.get("data_seed", None, record=False)
        if path or (self.preset_name and "dataset" in self.preset and self._raw("n") is None):
            if seed is not None:
                raise CliError("--data-seed applies only to a dataset generated from --n/--d/--kind")
            ds = load_dataset(path) if path else presets_mod.build_dataset(self.preset_name)
        else:
            n = self.get("n")
            d = self.get("d")
            kind = self.get("kind")
            if n is None or d is None or kind is None:
                raise CliError("need --preset, --dataset, or --n/--d/--kind")
            if seed is None:
                seed = self.get("seed", 0, record=False)
            ds = gen_dataset(int(n), int(d), kind, rho=self.get("rho", 0.0),
                             normalize=bool(self.get("normalize", False)), seed=int(seed))
        self.resolved["dataset_spec"] = {
            "n": ds.n, "d": ds.d, "kind": ds.kind, "normalized": ds.normalized,
            "seed": ds.seed,
        }
        return ds

    def graph(self, ds):
        path = self._raw("graph")  # never a preset value: presets hold graph specs
        self.resolved["graph"] = path
        if path:
            g = load_graph(path)
        elif self.get("graph_kind", record=False):
            g = make_graph(
                self.get("graph_kind"),
                ds.n,
                seed=int(self.get("graph_seed", 0) or 0),
                rows=self.get("graph_rows"),
                cols=self.get("graph_cols"),
                k=self.get("graph_k"),
                p=self.get("graph_p"),
            )
        elif self.preset_name and self.preset.get("graph"):
            g = presets_mod.build_graph(self.preset_name)
        else:
            raise CliError("need --preset with a graph, --graph, or --graph-kind")
        if g.n != ds.n:
            raise CliError(f"graph has {g.n} nodes but dataset has {ds.n} samples")
        self.resolved["graph_spec"] = {"n": g.n, "kind": g.kind, "params": g.params,
                                       "seed": g.seed, "edges": len(g.edges)}
        return g


# ---------------------------------------------------------------- output

def _outdir(res: _Resolver) -> str:
    out = res.get("out", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write(out, name, text, files):
    atomic_write_text(os.path.join(out, name), text)
    files.append(name)


def _write_table(out, name, columns, fmt, files, status=None):
    """Named columns as name.csv, or as name.json followed by the run status."""
    if fmt == "json":
        doc = dict(columns) if status is None else {**columns, "status": status}
        _write(out, name + ".json", dumps(doc) + "\n", files)
    else:
        _write(out, name + ".csv", csv_text(columns), files)


def _spectral_doc(ss):
    return {
        "lambda_max": ss.lambda_max,
        "lambda_min_nz": ss.lambda_min_nz,
        "rank": ss.rank,
        "trace": ss.trace,
        "condition_number": ss.condition_number,
        "m_star": ss.m_star,
        "tol": ss.tol,
        "eigenvalues": ss.eigenvalues,
    }


def _listed_files(path) -> set:
    """Plain file names an existing summary lists; none if it is absent or unreadable."""
    try:
        with open(path) as fh:
            names = json.load(fh)["files"]
        return {v for v in names if isinstance(v, str) and v == os.path.basename(v)}
    except (OSError, ValueError, KeyError, TypeError):
        return set()


def _write_summary(out, doc, files):
    """Write summary.json listing `files`, then remove what an earlier summary
    in `out` listed and this command did not write, so the directory holds
    exactly the listed files."""
    path = os.path.join(out, "summary.json")
    stale = _listed_files(path) - set(files) - {"summary.json"}
    doc = dict(doc)
    doc["files"] = sorted(files)
    atomic_write_text(path, dumps(doc) + "\n")
    for name in stale:
        if os.path.isfile(os.path.join(out, name)):
            os.remove(os.path.join(out, name))


# ---------------------------------------------------------------- commands

def _cmd_gen(res: _Resolver) -> int:
    out = _outdir(res)
    ds = res.dataset()
    files: list[str] = []
    _write(out, "dataset.json", dataset_to_json(ds) + "\n", files)
    _write_summary(out, {"command": "gen", "config": res.resolved,
                         "spectral": _spectral_doc(ds.spectral)}, files)
    return EXIT_OK


def _cmd_theory(res: _Resolver) -> int:
    out = _outdir(res)
    files: list[str] = []
    lambda1 = res.get("lambda1")
    lambdan = res.get("lambdan")
    n = res.get("n")
    d = res.get("d")
    spectral = None
    c_norms = 1.0
    if lambda1 is None or lambdan is None:
        ds = res.dataset()
        ss = ds.spectral
        spectral = _spectral_doc(ss)
        lambda1, lambdan, n, d = ss.lambda_max, ss.lambda_min_nz, ds.n, ds.d
        norms = ds.row_norms_sq()
        c_norms = gm_am_factor(float(norms.min()), float(norms.max()))
        _write(out, "dataset.json", dataset_to_json(ds) + "\n", files)
    if n is None:
        raise CliError("theory needs --n (or a dataset/preset)")
    n = int(n)
    m = float(res.get("m", n))
    pred = optimal_rate(m, n, float(lambda1), float(lambdan))
    doc = {
        "command": "theory",
        "config": res.resolved,
        "theory": {"m": pred.m, "eta_opt": pred.eta_opt, "g_opt": pred.g_opt,
                   "branch": pred.branch, "g_orthogonal_bound": orthogonal_rate(m, n, 1.0, 1.0)
                   if m <= n else None},
    }
    epsilon = res.get("epsilon")
    if epsilon is not None and 0 < pred.g_opt < 1:
        cm = cost_model(m, n, int(d) if d else 1, float(epsilon), pred.g_opt, c_norms)
        doc["cost"] = {"epsilon": cm.epsilon, "t_eps": cm.t_eps,
                       "total_cost": cm.total_cost, "cost_scaling": cm.cost_scaling}
    if spectral is not None:
        doc["spectral"] = spectral
    _write_summary(out, doc, files)
    return EXIT_OK


def _fit_curve(curve, tail=False, rel_se=None):
    """Rate fit with the default window (skip transient, stop pre-underflow).

    tail=True fits the later half, for deterministic distributed runs.  With
    an ensemble's rel_se the window ends where the mean's relative standard
    error first exceeds _FIT_MAX_REL_SE: past it the mean rests on the few
    runs that still carry error, and the fit would follow their noise.
    """
    stop = None
    if rel_se is not None:
        noisy = np.flatnonzero(rel_se > _FIT_MAX_REL_SE)
        stop = int(noisy[0]) if len(noisy) else None
    try:
        a, b = default_fit_window(curve, stop=stop)
        if tail:
            a = max(b // 2, min(5, b - 3))
        fit = estimate_rate(curve, (a, b))
        return fit, (a, b)
    except ValueError:
        return None, None


def _w0(res, shape):
    """Random initial state from --w0-seed, or None for the zero start."""
    w0_seed = res.get("w0_seed")
    return None if w0_seed is None else np.random.default_rng(int(w0_seed)).standard_normal(shape)


def _require_unit_norm_for_eta_star(ds, m, remedy):
    """Refuse eta* for batch size m < n on rows that are not unit-norm, which it assumes."""
    if m < ds.n and np.max(np.abs(ds.row_norms_sq() - 1.0)) > ROW_NORM_TOL:
        raise CliError(f"eta* assumes unit-norm rows, and this dataset's are not; {remedy}")


def _cmd_run_solver(res: _Resolver, solver: str) -> int:
    out = _outdir(res)
    fmt = res.get("fmt", "csv")
    master_seed = int(res.get("seed", 0))
    ds = res.dataset()
    ss = ds.spectral
    n = ds.n
    if solver == "gd":
        sampler = "full"
        m = float(n)
        # deterministic solver: preset ensemble sizes are for sgd only
        runs = int(res._raw("runs", 1))
        res.resolved["runs"] = runs
    else:
        sampler = res.get("sampler", "bernoulli")
        m = float(res.get("m", max(1.0, n / 4)))
        runs = int(res.get("runs", 1))
    pred = optimal_rate(m, n, ss.lambda_max, ss.lambda_min_nz)
    eta = res.get("eta")
    if eta is None:
        _require_unit_norm_for_eta_star(ds, m, "give --eta")
    eta = pred.eta_opt if eta is None else float(eta)
    res.resolved["eta"] = eta
    res.resolved["m"] = m
    res.resolved["sampler"] = sampler
    iters = int(res.get("iters", 200))
    stop_tol = float(res.get("stop_tol", 0.0))
    cfg = SolverConfig(eta=eta, m=m, sampler=sampler, max_iters=iters,
                       stop_tol=stop_tol, seed=master_seed, w0=_w0(res, ds.d))
    ens = run_ensemble(ds, cfg, runs=runs, seed=master_seed)

    files: list[str] = []
    _write(out, "dataset.json", dataset_to_json(ds) + "\n", files)
    width = max(3, len(str(runs - 1)))
    for k, tr in enumerate(ens.traces):
        columns = {c: getattr(tr, c) for c in _SOLVER_COLUMNS}
        _write_table(out, f"run_{k:0{width}d}", columns, fmt, files, tr.status)
    if runs > 1:
        curve = ens.mean_curve
        _write_table(out, "mean", {"t": np.arange(len(curve)), "mean_err_sq_range": curve}, fmt, files)
    fit, window = _fit_curve(ens.mean_curve, rel_se=ens.rel_se)
    statuses: dict[str, int] = {}
    for tr in ens.traces:
        statuses[tr.status] = statuses.get(tr.status, 0) + 1
    norms = ds.row_norms_sq()
    doc = {
        "command": f"run-{solver}",
        "config": res.resolved,
        "spectral": _spectral_doc(ss),
        "theory": {"m": pred.m, "eta_opt": pred.eta_opt, "g_opt": pred.g_opt,
                   "branch": pred.branch,
                   "g_orthogonal_bound": orthogonal_rate(m, n, float(norms.min()), float(norms.max()))},
        "empirical": {
            "g_hat": fit.rate if fit else None,
            "r_hat_norm": math.sqrt(fit.rate) if fit else None,
            "fit_residual": fit.residual if fit else None,
            "fit_window": list(window) if window else None,
            "statuses": statuses,
            "seeds": [tr.config.seed for tr in ens.traces],
        },
    }
    epsilon = res.get("epsilon")
    if epsilon is not None and 0 < pred.g_opt < 1:
        cm = cost_model(m, n, ds.d, float(epsilon), pred.g_opt,
                        gm_am_factor(float(norms.min()), float(norms.max())))
        doc["cost"] = {"epsilon": cm.epsilon, "t_eps": cm.t_eps,
                       "total_cost": cm.total_cost, "cost_scaling": cm.cost_scaling}
    _write_summary(out, doc, files)
    if statuses.get(STATUS_DIVERGED):
        return EXIT_DIVERGED
    return EXIT_OK


def _dgd_doc(ds, g, eta, mu):
    """The round operator's spectrum at step eta and penalty weight mu (or why it was
    skipped), the stability bound and rate_lower = 1 - eta lambda_min_nz(H)."""
    bound, bound_ok = stability_bound(ds, g, eta, mu)
    try:
        sp = dgd_operator_spectrum(ds, g, eta, mu)
        doc = {"skipped": False, "sigma_min": sp.sigma_min, "sigma_max": sp.sigma_max,
               "rate_lower": sp.rate_lower, "rate_spectral": sp.rate_spectral,
               "stable": sp.stable}
    except ValueError as exc:
        doc = {"skipped": True, "reason": str(exc)}
    doc.update(stability_bound=bound, stable_by_bound=bound_ok,
               rate_lower=1.0 - eta * ds.spectral.lambda_min_nz)
    return doc


def _band_check(doc, trace):
    """Add the band check of a DGD run to its _dgd_doc: the fitted
    error-norm rate lies in [rate_lower - 0.02, 1), both rate bounds contract
    (rate_lower < 1, and rate_spectral < 1 when the spectrum was computed),
    and a run with a stopping tolerance converged; a band at or above 1, or
    a run cut at its round cap, shows no convergence.  Returns the tail fit
    and its window.
    """
    fit, window = _fit_curve(trace.mean_err_sq_range, tail=True)
    r_hat = math.sqrt(fit.rate) if fit else None
    rate_lower, rate_spectral = doc["rate_lower"], doc.get("rate_spectral")
    contracting = rate_lower < 1.0 and (rate_spectral is None or rate_spectral < 1.0)
    reached = trace.status == STATUS_CONVERGED or not trace.stop_tol > 0
    band = contracting and reached and r_hat is not None and rate_lower - 0.02 <= r_hat < 1.0
    doc["band_check"] = "pass" if band else "fail"
    doc["spectral_match"] = None
    if rate_spectral is not None and r_hat is not None and rate_spectral > 0:
        doc["spectral_match"] = abs(r_hat - rate_spectral) <= 0.01 * rate_spectral
    return fit, window


def _cmd_run_dgd(res: _Resolver) -> int:
    out = _outdir(res)
    fmt = res.get("fmt", "csv")
    ds = res.dataset()
    g = res.graph(ds)
    mu = float(res.get("mu", 1.0))
    eta = float(res.get("eta", stable_eta(ds, g, mu)))
    dgd_doc = _dgd_doc(ds, g, eta, mu)
    # resolved step first, then the run options: summary.json keeps this order
    res.resolved.update(eta=eta, mu=mu, mu_iter=eta * mu)
    trace = run_dgd(ds, g, eta, mu, max_iters=int(res.get("iters", 10_000)),
                    stop_tol=float(res.get("stop_tol", 1e-16)), W0=_w0(res, (ds.n, ds.d)))
    fit, window = _band_check(dgd_doc, trace)
    files: list[str] = []
    _write(out, "dataset.json", dataset_to_json(ds) + "\n", files)
    _write(out, "graph.json", graph_to_json(g) + "\n", files)
    columns = {c: getattr(trace, c) for c in _DGD_COLUMNS}
    _write_table(out, "trace", columns, fmt, files, trace.status)
    err0 = trace.mean_err_sq_range[0]
    sp0 = trace.global_spread[0]
    doc = {
        "command": "run-dgd",
        "config": res.resolved,
        "spectral": _spectral_doc(ds.spectral),
        "dgd": dgd_doc,
        "empirical": {
            "status": trace.status,
            "iterations": int(trace.t[-1]),
            "r_hat_norm": math.sqrt(fit.rate) if fit else None,
            "g_hat": fit.rate if fit else None,
            "fit_residual": fit.residual if fit else None,
            "fit_window": list(window) if window else None,
            "final_err_rel": (trace.mean_err_sq_range[-1] / err0) if err0 > 0 else None,
            "final_spread_rel": (trace.global_spread[-1] / sp0) if sp0 > 0 else None,
        },
    }
    _write_summary(out, doc, files)
    if trace.status == STATUS_DIVERGED:
        return EXIT_DIVERGED
    if dgd_doc["band_check"] != "pass":
        return EXIT_INVALID
    return EXIT_OK


def _cmd_run(res: _Resolver) -> int:
    solver = res.args.solver
    if solver == "dgd":
        return _cmd_run_dgd(res)
    return _cmd_run_solver(res, solver)


def _parse_values(raw, fallback):
    if raw is None:
        return [float(v) for v in fallback] if fallback else None
    if isinstance(raw, (list, tuple)):
        return [float(v) for v in raw]
    return [float(v) for v in str(raw).split(",") if v != ""]


def _cmd_sweep(res: _Resolver) -> int:
    param = res.args.param
    out = _outdir(res)
    fmt = res.get("fmt", "csv")
    master_seed = int(res.get("seed", 0))
    epsilon = float(res.get("epsilon", 0.01))
    ds = res.dataset()
    ss = ds.spectral
    n, d = ds.n, ds.d
    norms = ds.row_norms_sq()
    c_norms = gm_am_factor(float(norms.min()), float(norms.max()))
    values = _parse_values(res.get("values"), res.preset.get("sweep_values"))
    if not values:
        raise CliError(f"sweep {param} needs --values")
    res.resolved["values"] = values
    res.resolved["epsilon"] = epsilon
    runs = int(res.get("runs", 0))
    if param == "m" and runs > 0:
        _require_unit_norm_for_eta_star(ds, min(values), "give --runs 0 for predictions only")
    iters = int(res.get("iters", 60 if param != "mu" else 10_000))
    stop_tol = float(res.get("stop_tol", 0.0 if param != "mu" else 1e-16))
    files: list[str] = []
    _write(out, "dataset.json", dataset_to_json(ds) + "\n", files)
    rows = []

    if param in ("m", "eta"):
        fixed_m = float(res.get("m", max(1.0, n / 4))) if param == "eta" else None

        def measure(eta_v, m_v):
            cfg = SolverConfig(eta=eta_v, m=m_v, sampler="bernoulli",
                               max_iters=iters, stop_tol=stop_tol, seed=master_seed)
            ens = run_ensemble(ds, cfg, runs=runs, seed=master_seed)
            fit, window = _fit_curve(ens.mean_curve, rel_se=ens.rel_se)
            status = min((tr.status for tr in ens.traces), key=_STATUS_WORST_FIRST.index)
            return (fit.rate if fit else None), status

        if param == "m":
            header = ["m", "eta_opt", "g_opt", "branch", "t_eps", "total_cost",
                      "cost_scaling", "g_hat_measured", "status"]
            for v in values:
                pred = optimal_rate(v, n, ss.lambda_max, ss.lambda_min_nz)
                cm = cost_model(v, n, d, epsilon, pred.g_opt, c_norms)
                measured = status = None
                if runs > 0:
                    measured, status = measure(pred.eta_opt, v)
                rows.append([v, pred.eta_opt, pred.g_opt, pred.branch,
                             cm.t_eps, cm.total_cost, cm.cost_scaling, measured, status])
        else:
            header = ["eta", "m", "g_pred", "g_hat_measured", "status"]
            for v in values:
                g_pred = max(g_eigen(fixed_m, n, v, ss.lambda_max),
                             g_eigen(fixed_m, n, v, ss.lambda_min_nz))
                measured = status = None
                if runs > 0:
                    measured, status = measure(v, fixed_m)
                rows.append([v, fixed_m, g_pred, measured, status])
            res.resolved["m"] = fixed_m
    else:  # mu sweep
        g = res.graph(ds)
        _write(out, "graph.json", graph_to_json(g) + "\n", files)
        W0 = _w0(res, (n, d))
        header = ["mu", "eta", "mu_iter", "sigma_min", "sigma_max", "rate_lower",
                  "rate_spectral", "stable", "r_hat_norm", "band_check", "status"]
        eta_flag = res.get("eta")
        for i, v in enumerate(values):
            eta = stable_eta(ds, g, v) if eta_flag is None else float(eta_flag)
            dgd = _dgd_doc(ds, g, eta, v)
            trace = run_dgd(ds, g, eta, v, max_iters=iters, stop_tol=stop_tol, W0=W0)
            fit, _ = _band_check(dgd, trace)
            columns = {c: getattr(trace, c) for c in _DGD_COLUMNS}
            _write_table(out, f"trace_{i:03d}", columns, fmt, files, trace.status)
            rows.append([v, eta, eta * v, dgd.get("sigma_min"), dgd.get("sigma_max"),
                         dgd["rate_lower"], dgd.get("rate_spectral"), dgd.get("stable"),
                         math.sqrt(fit.rate) if fit else None, dgd["band_check"], trace.status])

    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    _write(out, "sweep.csv", csv_text(columns), files)
    doc = {
        "command": f"sweep-{param}",
        "config": res.resolved,
        "spectral": _spectral_doc(ss),
        "rows": [dict(zip(header, row)) for row in rows],
    }
    _write_summary(out, doc, files)
    if STATUS_DIVERGED in columns["status"]:
        return EXIT_DIVERGED
    if any(band != "pass" for band in columns.get("band_check", ())):
        return EXIT_INVALID
    return EXIT_OK


def _cmd_spectrum(res: _Resolver) -> int:
    out = _outdir(res)
    ds = res.dataset()
    g = res.graph(ds)
    mu = float(res.get("mu", 1.0))
    eta = float(res.get("eta", stable_eta(ds, g, mu)))
    dgd_doc = _dgd_doc(ds, g, eta, mu)
    res.resolved.update(eta=eta, mu=mu, mu_iter=eta * mu)
    files: list[str] = []
    _write(out, "dataset.json", dataset_to_json(ds) + "\n", files)
    _write(out, "graph.json", graph_to_json(g) + "\n", files)
    doc = {
        "command": "spectrum",
        "config": res.resolved,
        "spectral": _spectral_doc(ds.spectral),
        "dgd": dgd_doc,
    }
    _write_summary(out, doc, files)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        res = _Resolver(args)
        handler = {
            "gen": _cmd_gen,
            "theory": _cmd_theory,
            "run": _cmd_run,
            "sweep": _cmd_sweep,
            "spectrum": _cmd_spectrum,
        }[args.command]
        return handler(res)
    except (ValueError, OSError) as exc:  # CliError included
        print(f"gdlab: error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
