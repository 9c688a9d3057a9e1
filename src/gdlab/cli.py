"""Command-line experiment runner.

Commands and the options each reads, besides --config, --preset, --out and
--seed; D stands for --dataset --n --d --kind --rho --normalize --data-seed
and G for --graph --graph-kind --graph-rows --graph-cols --graph-k
--graph-p --graph-seed:
    gen        D: a dataset and its spectral summary
    theory     D --m --lambda1 --lambdan --epsilon: closed-form rate and cost
               (given --lambda1 and --lambdan it reads no dataset: refuses --preset, D but --n --d)
    run gd     D --eta --iters --stop-tol --w0-seed --epsilon: run sgd's Bernoulli step at m = n
    run sgd    the run gd options, --runs --m --sampler
    run dgd    D G --eta --mu --iters --stop-tol --w0-seed
    sweep m    D --values --runs --iters --stop-tol --epsilon: a row per value
    sweep eta  D --values --runs --iters --stop-tol --m
    sweep mu   D G --values --eta --iters --stop-tol --w0-seed
    spectrum   D G --eta --mu: round-operator spectrum of run dgd (n * rank H <= 4096)
Any other option, or an abbreviated one, is a validation failure.

All outputs land in --out: each table as the command makes it, a CSV file
(one per run plus mean.csv for ensembles), then the dataset.json / graph.json
inputs, then summary.json embedding the fully resolved configuration (every
seed explicit) and, for run gd|sgd, each run's status in run order.
Identical configuration and master seed reproduce byte-identical files.
Numeric output carries 17 significant digits.

A JSON config file (--config) holds option values keyed by the long name with
_ for - (stop_tol, w0_seed), parsed as flags (true/false for --name/
--no-name, a list as a comma string) placed before the command line's, which
win; a key that is not an option of the command is a validation failure.
A validation failure exits 1 and writes no file.  Otherwise main alone sets
the exit status once every file is written: 2 if a run diverged, else 1 if a
verdict failed, else 0.  summary.json lists each check in `verdicts` as
{name, observed, bound, margin, ok} (a sweep's with its row), margin being
the signed distance to the nearest bound, positive inside it and null when
nothing was measured; each failed one prints a stderr line with its margin.
A run dgd or sweep mu point checks converged, contracting, rate_band and,
when its spectrum was computed, spectral_match; sweep mu's sweep.csv has a
pass/fail column for each.

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
from collections import Counter

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
from .io import csv_chunks, dumps, write_atomic
from .problem import dataset_to_json, gen_dataset, load_dataset
from .solvers import (
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    SolverConfig,
    _check_eta_m,
    fit_rate,
    run_ensemble,
)
from .theory import cost_model, g_eigen, gm_am_factor, optimal_rate, orthogonal_rate

_SOLVER_COLUMNS = ("t", "err_sq_range", "loss", "batch_size")
_DGD_COLUMNS = ("t", "mean_err_sq_range", "edge_spread", "global_spread", "penalized_loss")
_DGD_VERDICTS = ("converged", "contracting", "rate_band", "spectral_match")
_SPECTRAL_KEYS = ("lambda_max", "lambda_min_nz", "rank", "trace", "condition_number", "m_star",
                  "tol", "eigenvalues")


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; validation failures are 1
        raise CliError(message)


# ---------------------------------------------------------------- resolution

def _config_flags(path, variant):
    """The config file's JSON object as flags: --name=value, --name/--no-name
    for true/false, a list as a comma string.  Each key must name an option of
    the variant."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"unreadable config file {path}: {exc}")
    if not isinstance(doc, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    flags = []
    for key, value in doc.items():
        if key == "config" or key not in _COMMON + _VARIANTS[variant][2]:
            raise CliError(f"config file {path}: {key!r} is not an option of "
                           f"{' '.join(variant)}; keys are long option names with _ for -")
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            value = ",".join(map(str, value))
        if isinstance(value, bool):
            flags.append(flag if value else "--no-" + flag[2:])
        elif isinstance(value, (str, int, float)):
            flags.append(f"{flag}={value}")
        else:
            raise CliError(f"config file {path}: {key!r} is not a string, number, boolean or list")
    return flags


class _Resolver:
    """Precedence: command line > config file (parsed into args) > preset > hard default."""

    def __init__(self, args):
        self.args = args
        preset_name = self._raw("preset")
        self.preset = presets_mod.get_preset(preset_name) if preset_name else {}
        self.preset_name = preset_name
        self.resolved: dict = {"command": args.command}
        if args.command in _GROUPS:  # run and sweep also record their solver or param
            self.resolved[_GROUPS[args.command][0]] = args.variant[1]
        self.resolved["preset"] = preset_name
        self.ds = self.g = None  # the inputs read, which _Output.commit writes

    def _raw(self, key, default=None):
        v = getattr(self.args, key)  # only the variant's own options are read
        return default if v is None else v

    def get(self, key, default=None, record=True):
        v = self._raw(key, self.preset.get(key))
        if v is None:
            v = default
        if record:
            self.resolved[key] = v
        return v

    def refuse(self, keys, why):
        """Refuse the first of keys given as a flag or in --config: `--flag why`."""
        for key in keys:
            value = self._raw(key)
            if value is not None:
                flag = "no-normalize" if value is False else key.replace("_", "-")
                raise CliError(f"--{flag} {why}")

    def dataset(self):
        path = self._raw("dataset")  # never a preset value: presets hold generation specs
        self.resolved["dataset"] = path
        if path or (self.preset_name and "dataset" in self.preset and self._raw("n") is None):
            self.refuse(("n", "d", "kind", "rho", "normalize", "data_seed"),
                        "applies only to a dataset generated from --n/--d/--kind")
            ds = load_dataset(path) if path else presets_mod.build_dataset(self.preset_name)
        else:
            seed = self.get("data_seed", None, record=False)
            n = self.get("n")
            d = self.get("d")
            kind = self.get("kind")
            if n is None or d is None or kind is None:
                raise CliError("--n with --preset asks for a generated dataset, which also "
                               "needs --d and --kind" if self.preset_name else
                               "need --preset, --dataset, or --n/--d/--kind")
            if seed is None:
                seed = self.get("seed", 0, record=False)
            ds = gen_dataset(int(n), int(d), kind, rho=self.get("rho", 0.0),
                             normalize=bool(self.get("normalize", False)), seed=int(seed))
        self.resolved["dataset_spec"] = {"n": ds.n, "d": ds.d, "kind": ds.kind,
                                         "normalized": ds.normalized, "seed": ds.seed}
        self.ds = ds
        return ds

    def graph(self, ds):
        path = self._raw("graph")  # never a preset value: presets hold graph specs
        self.resolved["graph"] = path
        generation = ("graph_rows", "graph_cols", "graph_k", "graph_p", "graph_seed")
        if path:
            self.refuse(("graph_kind",) + generation, "applies only to a graph generated from "
                        "--graph-kind, not to a --graph file")
            g = load_graph(path)
        elif self.get("graph_kind", record=False):
            g = make_graph(self.get("graph_kind"), ds.n, seed=int(self.get("graph_seed", 0) or 0),
                           rows=self.get("graph_rows"), cols=self.get("graph_cols"),
                           k=self.get("graph_k"), p=self.get("graph_p"))
        elif self.preset_name and self.preset.get("graph"):
            self.refuse(generation, "applies only to a graph generated from --graph-kind, "
                        "not to the preset's graph")
            g = presets_mod.build_graph(self.preset_name)
        else:
            raise CliError("need --preset with a graph, --graph, or --graph-kind")
        if g.n != ds.n:
            raise CliError(f"graph has {g.n} nodes but dataset has {ds.n} samples")
        self.resolved["graph_spec"] = {"n": g.n, "kind": g.kind, "params": g.params,
                                       "seed": g.seed, "edges": len(g.edges)}
        self.g = g
        return g


# ---------------------------------------------------------------- output

def _listed_files(path) -> set:
    """Plain file names an existing summary lists; none if it is absent or unreadable."""
    try:
        with open(path) as fh:
            names = json.load(fh)["files"]
        return {v for v in names if isinstance(v, str) and v == os.path.basename(v)}
    except (OSError, ValueError, KeyError, TypeError):
        return set()


class _Output:
    """Every file of one command in its --out directory, each written through
    write_atomic: tables as the command makes them, then at commit the inputs
    it read and summary.json."""

    def __init__(self, out):
        self.out = out
        self.files: list[str] = []

    def _write(self, name, parts):
        """Write `parts`, a list of strings or csv_chunks (never a bare str), to name."""
        if not self.files:  # made at the first write: a command failing before it leaves none
            os.makedirs(self.out, exist_ok=True)
        write_atomic(os.path.join(self.out, name), parts)
        self.files.append(name)

    def table(self, name, columns):
        """Named columns as name.csv."""
        self._write(name + ".csv", csv_chunks(columns))

    def commit(self, res, blocks, verdicts):
        """Write the inputs res read, then summary.json (the command's resolved
        configuration, the dataset's spectrum, `blocks`, the verdicts, the files),
        then remove what an earlier summary listed that this command did not write."""
        doc = {"command": "-".join(res.args.variant), "config": res.resolved}
        if res.ds is not None:
            self._write("dataset.json", [dataset_to_json(res.ds) + "\n"])
            doc["spectral"] = {k: getattr(res.ds.spectral, k) for k in _SPECTRAL_KEYS}
        if res.g is not None:
            self._write("graph.json", [graph_to_json(res.g) + "\n"])
        path = os.path.join(self.out, "summary.json")
        stale = _listed_files(path) - set(self.files) - {"summary.json"}
        doc.update(blocks, verdicts=verdicts, files=sorted(self.files))
        self._write("summary.json", [dumps(doc) + "\n"])
        for name in stale:
            if os.path.isfile(os.path.join(self.out, name)):
                os.remove(os.path.join(self.out, name))


# ---------------------------------------------------------------- commands

def _cmd_gen(res: _Resolver, output: _Output):
    res.dataset()
    return {}, [], []


def _predictions(pred, n, d, x_min_sq, x_max_sq, epsilon):
    """summary.json's theory block for pred, and its cost block at epsilon as
    {"cost": ...}, empty when epsilon is None.  A zero row leaves the norm
    factor, so the orthogonal bound and the cost scaling, undefined (None)."""
    c = gm_am_factor(x_min_sq, x_max_sq) if x_min_sq > 0 else None
    theory = {"m": pred.m, "eta_opt": pred.eta_opt, "g_opt": pred.g_opt, "branch": pred.branch,
              "g_orthogonal_bound": orthogonal_rate(pred.m, n, x_min_sq, x_max_sq) if c else None}
    if epsilon is None:
        return theory, {}
    cm = cost_model(pred.m, n, d, float(epsilon), pred.g_opt, c)
    return theory, {"cost": {"epsilon": cm.epsilon, "t_eps": cm.t_eps,
                             "total_cost": cm.total_cost, "cost_scaling": cm.cost_scaling}}


def _cmd_theory(res: _Resolver, output: _Output):
    lambda1 = res.get("lambda1")
    lambdan = res.get("lambdan")
    n = res.get("n")
    d = res.get("d")
    x_min_sq = x_max_sq = 1.0  # unit norms when only the spectrum is given
    if lambda1 is None or lambdan is None:
        ds = res.dataset()
        lambda1, lambdan, n, d = ds.spectral.lambda_max, ds.spectral.lambda_min_nz, ds.n, ds.d
        norms = ds.row_norms_sq()
        x_min_sq, x_max_sq = float(norms.min()), float(norms.max())
    else:  # no dataset is read, so none may be given
        res.refuse(("preset", "dataset", "kind", "rho", "normalize", "data_seed"),
                   "gives a dataset, which theory with --lambda1 and --lambdan does not read")
        if d is not None and d < 1:
            raise CliError(f"--d must be >= 1: {d}")
        if n is not None and n < 1:  # before optimal_rate, which would blame --m
            raise CliError(f"--n must be >= 1: {n}")
    if n is None:
        raise CliError("theory needs --n (or a dataset/preset)")
    n = int(n)
    m = float(res.get("m", n))
    pred = optimal_rate(m, n, float(lambda1), float(lambdan))
    theory, cost = _predictions(pred, n, 1 if d is None else d, x_min_sq, x_max_sq,
                                res.get("epsilon"))
    return {"theory": theory, **cost}, [], []


def _w0(res, shape):
    """Random initial state from --w0-seed, or None for the zero start."""
    w0_seed = res.get("w0_seed")
    return None if w0_seed is None else np.random.default_rng(int(w0_seed)).standard_normal(shape)


def _sgd_points(ds, points, runs, remedy, epsilon, m_flag, **solver):
    """The SGD points of run gd|sgd and sweep m|eta, each (eta or None, m).  Each point
    gets optimal_rate(m), whose refusal names m_flag, the option that gave m (None for
    none), a validated SolverConfig(eta, m, **solver), at eta* where no
    eta is given (refused, with remedy, below m = n on rows that are not unit-norm when
    runs are made), and its _predictions at epsilon, before any runs; then its
    _measure.  Returns (theory, cost, config, ensemble, fit, status) per point."""
    ss = ds.spectral
    norms = ds.row_norms_sq()
    x_min_sq, x_max_sq = float(norms.min()), float(norms.max())
    made = []
    for eta, m in points:
        try:
            pred = optimal_rate(m, ds.n, ss.lambda_max, ss.lambda_min_nz)
        except ValueError as exc:
            if m_flag is None:
                raise
            raise CliError(f"{m_flag} {m:g}: {exc}") from None
        if eta is None and runs is not None and m < ds.n and not ds.normalized:
            raise CliError(f"eta* assumes unit-norm rows, and this dataset's are not; {remedy}")
        cfg = SolverConfig(eta=pred.eta_opt if eta is None else float(eta), m=m, **solver)
        cfg.validate(ds.n)
        made.append((*_predictions(pred, ds.n, ds.d, x_min_sq, x_max_sq, epsilon), cfg))
    return [(theory, cost, cfg, *_measure(ds, cfg, runs)) for theory, cost, cfg in made]


def _measure(ds, cfg, runs):
    """cfg's ensemble of runs, its fit_rate and its worst status; all None
    when runs is None."""
    if runs is None:
        return None, None, None
    ens = run_ensemble(ds, cfg, runs=runs)
    return ens, fit_rate(ens.mean_curve, rel_se=ens.rel_se), ens.status


def _cmd_run_solver(res: _Resolver, output: _Output):
    master_seed = int(res.get("seed", 0))
    ds = res.dataset()
    sampler = "bernoulli"
    if res.args.solver == "gd":  # deterministic: one run at m = n
        m, runs = float(ds.n), 1
    else:
        sampler = res.get("sampler", sampler)
        m = float(res.get("m", max(1.0, ds.n / 4)))
        runs = int(res.get("runs", 1))
    eta = res.get("eta")
    res.resolved.update(m=m, sampler=sampler)
    [(theory, cost, cfg, ens, fit, status)] = _sgd_points(
        ds, [(eta, m)], runs, "give --eta", sampler=sampler,
        max_iters=int(res.get("iters", 200)), stop_tol=float(res.get("stop_tol", 0.0)),
        seed=master_seed, w0=_w0(res, ds.d), epsilon=res.get("epsilon"),
        m_flag="--m" if res.args.solver == "sgd" else None)
    res.resolved["eta"] = cfg.eta
    run_statuses = [tr.status for tr in ens.traces]  # a CSV trace holds none

    width = max(3, len(str(runs - 1)))
    for k, tr in enumerate(ens.traces):
        columns = {c: getattr(tr, c) for c in _SOLVER_COLUMNS}
        output.table(f"run_{k:0{width}d}", columns)
    if runs > 1:
        curve = ens.mean_curve
        output.table("mean", {"t": np.arange(len(curve)), "mean_err_sq_range": curve})
    doc = {
        "theory": theory,
        "empirical": {
            "g_hat": fit.rate if fit else None,
            "r_hat_norm": math.sqrt(fit.rate) if fit else None,
            "fit_residual": fit.residual if fit else None,
            "fit_window": list(fit.window) if fit else None,
            "statuses": Counter(run_statuses),
            "seeds": [tr.config.seed for tr in ens.traces],
            "run_statuses": run_statuses,
        },
        **cost,
    }
    return doc, [status], []


def _dgd_doc(ds, g, eta, mu):
    """The round operator's spectrum at step eta and penalty weight mu (or why it was
    skipped), the stability bound and rate_lower = 1 - eta lambda_min_nz(H), the
    one-sided rate bound (a consensus test vector shows sigma_min <= eta lambda_min_nz(H))."""
    bound, bound_ok = stability_bound(ds, g, eta, mu)
    rate_lower = 1.0 - eta * ds.spectral.lambda_min_nz
    try:
        sp = dgd_operator_spectrum(ds, g, eta, mu)
        doc = {"skipped": False, "sigma_min": sp.sigma_min, "sigma_max": sp.sigma_max,
               "rate_lower": rate_lower, "rate_spectral": sp.rate_spectral,
               "stable": sp.stable}
    except ValueError as exc:
        doc = {"skipped": True, "reason": str(exc)}
    doc.update(stability_bound=bound, stable_by_bound=bound_ok, rate_lower=rate_lower)
    return doc


def _verdict(name, observed, bound, margin, ok):
    """A check's entry: margin is the signed distance of observed to the nearest
    bound, positive inside, None when nothing was measured."""
    return {"name": name, "observed": observed, "bound": bound, "margin": margin, "ok": bool(ok)}


def _dgd_verdicts(doc, trace, r_hat, stop_tol):
    """The checks of one DGD point, its _dgd_doc and trace: converged (a run with
    stop_tol > 0 reached it), contracting (rate_lower < 1, and rate_spectral < 1
    when computed), rate_band (the fitted error-norm rate r_hat in
    [rate_lower - 0.02, 1)) and, only when the spectrum was computed,
    spectral_match (r_hat within 1% of rate_spectral)."""
    err = trace.mean_err_sq_range
    rel = err[-1] / err[0] if err[0] > 0 else None
    tol = stop_tol if stop_tol > 0 else None
    lower, spectral = doc["rate_lower"], doc.get("rate_spectral")
    worst = lower if spectral is None else max(lower, spectral)
    band = [lower - 0.02, 1.0]
    verdicts = [
        _verdict("converged", rel, tol, tol - rel if tol and rel is not None else None,
                 tol is None or trace.status == STATUS_CONVERGED),
        _verdict("contracting", worst, 1.0, 1.0 - worst, worst < 1.0),
        _verdict("rate_band", r_hat, band,
                 None if r_hat is None else min(r_hat - band[0], band[1] - r_hat),
                 r_hat is not None and band[0] <= r_hat < band[1]),
    ]
    if spectral is not None:
        dev = None if r_hat is None else abs(r_hat - spectral)
        verdicts.append(_verdict("spectral_match", dev, 0.01 * spectral,
                                 None if dev is None else 0.01 * spectral - dev,
                                 dev is not None and dev <= 0.01 * spectral))
    return verdicts


def _dgd_points(res: _Resolver, output: _Output, mus, names):
    """The DGD points of run dgd and sweep mu, at penalty weights mus: each
    point's step (--eta, or stable_eta at its mu), one run_dgd call (which
    checks every input first), then per point its _dgd_doc (after the runs,
    so their buffers miss the heap its range-block matrices free), its tail
    fit_rate, its verdicts and its trace table names[k].  Returns (eta,
    _dgd_doc, trace, fit, verdicts) per point."""
    ds = res.dataset()
    g = res.graph(ds)
    eta_flag = res.get("eta")
    etas = [stable_eta(ds, g, mu) if eta_flag is None else float(eta_flag) for mu in mus]
    iters = int(res.get("iters", 10_000))
    stop_tol = float(res.get("stop_tol", 1e-16))
    traces = run_dgd(ds, g, etas, mus, max_iters=iters, stop_tol=stop_tol,
                     W0=_w0(res, (ds.n, ds.d)))
    docs = [_dgd_doc(ds, g, eta, mu) for eta, mu in zip(etas, mus)]
    points = []
    for eta, doc, trace, name in zip(etas, docs, traces, names):
        fit = fit_rate(trace.mean_err_sq_range, tail=True)
        output.table(name, {c: getattr(trace, c) for c in _DGD_COLUMNS})
        r_hat = math.sqrt(fit.rate) if fit else None
        points.append((eta, doc, trace, fit, _dgd_verdicts(doc, trace, r_hat, stop_tol)))
    return points


def _cmd_run_dgd(res: _Resolver, output: _Output):
    mu = float(res.get("mu", 1.0))
    [(eta, dgd_doc, trace, fit, verdicts)] = _dgd_points(res, output, [mu], ["trace"])
    res.resolved.update(eta=eta, mu_iter=eta * mu)
    err, spread = trace.mean_err_sq_range, trace.global_spread
    doc = {
        "dgd": dgd_doc,
        "empirical": {
            "status": trace.status,
            "iterations": int(trace.t[-1]),
            "r_hat_norm": math.sqrt(fit.rate) if fit else None,
            "g_hat": fit.rate if fit else None,
            "fit_residual": fit.residual if fit else None,
            "fit_window": list(fit.window) if fit else None,
            "final_err_rel": (err[-1] / err[0]) if err[0] > 0 else None,
            # against the peak: the zero start is a consensus state, of spread 0
            "final_spread_rel": (spread[-1] / spread.max()) if spread.max() > 0 else None,
        },
    }
    return doc, [trace.status], verdicts


def _sweep_values(res):
    """--values, or the preset's sweep values, as floats; at least one."""
    raw = res.get("values")
    values = [float(v) for v in (raw.split(",") if raw is not None
                                 else res.preset.get("sweep_values", ())) if v != ""]
    if not values:
        raise CliError(f"sweep {res.args.param} needs --values")
    res.resolved["values"] = values
    return values


def _sweep_table(output, header, rows):
    """sweep.csv, a row per swept value, and summary.json's rows as dicts."""
    output.table("sweep", {name: [row[i] for row in rows] for i, name in enumerate(header)})
    return {"rows": [dict(zip(header, row)) for row in rows]}


def _cmd_sweep(res: _Resolver, output: _Output):
    param = res.args.param
    master_seed = int(res.get("seed", 0))
    epsilon = res.get("epsilon", 0.01) if param == "m" else None
    ds = res.dataset()
    ss = ds.spectral
    n = ds.n
    values = _sweep_values(res)
    runs = int(res.get("runs", 0)) or None  # 0: predictions only
    solver = dict(sampler="bernoulli", max_iters=int(res.get("iters", 60)),
                  stop_tol=float(res.get("stop_tol", 0.0)), seed=master_seed)
    if param == "m":
        header = ["m", "eta_opt", "g_opt", "branch", "t_eps", "total_cost",
                  "cost_scaling", "g_hat_measured", "status"]
        points = _sgd_points(ds, [(None, v) for v in values], runs,
                             "give --runs 0 for predictions only", epsilon, "--values", **solver)
        rows = []
        for v, (theory, cost, _, _, fit, status) in zip(values, points):
            cm = cost["cost"]
            rows.append([v, theory["eta_opt"], theory["g_opt"], theory["branch"], cm["t_eps"],
                         cm["total_cost"], cm["cost_scaling"], fit.rate if fit else None, status])
    else:
        fixed_m = res.resolved["m"] = float(res.get("m", max(1.0, n / 4)))
        header = ["eta", "m", "g_pred", "g_hat_measured", "status"]
        # g_pred is the only prediction written, so no optimal_rate is made
        try:
            _check_eta_m(None, fixed_m, n)
        except ValueError as exc:
            raise CliError(f"--m {fixed_m:g}: {exc}") from None
        cfgs = [SolverConfig(eta=float(v), m=fixed_m, **solver) for v in values]
        for cfg in cfgs:  # every value before the first run
            cfg.validate(n)
        rows = []
        for v, cfg in zip(values, cfgs):
            _, fit, status = _measure(ds, cfg, runs)
            g_pred = max(g_eigen(fixed_m, n, v, ss.lambda_max),
                         g_eigen(fixed_m, n, v, ss.lambda_min_nz))
            # an eta whose square overflows has no prediction: null, as JSON
            # holds no inf
            rows.append([v, fixed_m, g_pred if math.isfinite(g_pred) else None,
                         fit.rate if fit else None, status])
    return _sweep_table(output, header, rows), [row[-1] for row in rows], []


def _cmd_sweep_mu(res: _Resolver, output: _Output):
    res.get("seed", 0)  # recorded, as by every sweep
    values = _sweep_values(res)
    points = _dgd_points(res, output, values, [f"trace_{i:03d}" for i in range(len(values))])
    header = ["mu", "eta", "mu_iter", "sigma_min", "sigma_max", "rate_lower", "rate_spectral",
              "stable", "r_hat_norm", *_DGD_VERDICTS, "status"]
    rows, verdicts = [], []
    for i, (mu, (eta, dgd, trace, fit, checks)) in enumerate(zip(values, points)):
        passed = {v["name"]: "pass" if v["ok"] else "fail" for v in checks}
        rows.append([mu, eta, eta * mu, dgd.get("sigma_min"), dgd.get("sigma_max"),
                     dgd["rate_lower"], dgd.get("rate_spectral"), dgd.get("stable"),
                     math.sqrt(fit.rate) if fit else None, *map(passed.get, _DGD_VERDICTS),
                     trace.status])
        verdicts += [{"row": i, **v} for v in checks]
    return _sweep_table(output, header, rows), [row[-1] for row in rows], verdicts


def _cmd_spectrum(res: _Resolver, output: _Output):
    ds = res.dataset()
    g = res.graph(ds)
    mu = float(res.get("mu", 1.0))
    eta = float(res.get("eta", stable_eta(ds, g, mu)))
    res.resolved.update(eta=eta, mu=mu, mu_iter=eta * mu)
    return {"dgd": _dgd_doc(ds, g, eta, mu)}, [], []


# ---------------------------------------------------------------- parser

def _seed(text):
    """A seed option's value: numpy seeds no negative integer, so one is
    refused here, where argparse's message names the option."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


# every option once: the key (its --long-name with _ for -) -> argparse keywords
_OPTIONS = {
    "config": dict(help="JSON file of option values keyed by long name, _ for -"),
    "preset": dict(help="named preset: " + ", ".join(presets_mod.preset_names())),
    "out": dict(help="output directory (default .)"),
    "seed": dict(type=_seed, help="master seed (default 0)"),
    "dataset": dict(help="path to a dataset JSON file"),
    "n": dict(type=int, help="sample count"),
    "d": dict(type=int, help="parameter dimension"),
    "kind": dict(choices=["orthonormal", "gaussian", "spiked"], help="dataset kind"),
    "rho": dict(type=float, help="spiked correlation in [0,1)"),
    "normalize": dict(action=argparse.BooleanOptionalAction, help="rescale rows to unit norm"),
    "data_seed": dict(type=_seed, help="dataset generation seed (default: master seed)"),
    "graph": dict(help="path to a graph JSON file"),
    "graph_kind": dict(choices=["complete", "ring", "path", "grid", "k_ring", "erdos_renyi"],
                       help="graph kind"),
    "graph_rows": dict(type=int, help="grid rows"),
    "graph_cols": dict(type=int, help="grid columns"),
    "graph_k": dict(type=int, help="k_ring neighbours on each side"),
    "graph_p": dict(type=float, help="erdos_renyi edge probability"),
    "graph_seed": dict(type=_seed, help="erdos_renyi graph seed (default 0)"),
    "m": dict(type=float, help="mean batch size"),
    "lambda1": dict(type=float, help="largest nonzero eigenvalue"),
    "lambdan": dict(type=float, help="smallest nonzero eigenvalue"),
    "epsilon": dict(type=float, help="target relative error for the cost model"),
    "eta": dict(type=float, help="learning rate (default: optimal/stable)"),
    "mu": dict(type=float, help="consensus penalty weight"),
    "sampler": dict(choices=["bernoulli", "fixed"], help="minibatch sampler"),
    "runs": dict(type=int, help="ensemble size (per sweep point; 0 = predictions only)"),
    "iters": dict(type=int, help="iteration cap"),
    "stop_tol": dict(type=float, help="relative stopping tolerance (0 = never)"),
    "w0_seed": dict(type=_seed, help="seed for a random initial state (default: zeros)"),
    "values": dict(help="comma-separated parameter values"),
}
_COMMON = ("config", "preset", "out", "seed")
_D = ("dataset", "n", "d", "kind", "rho", "normalize", "data_seed")
_G = ("graph", "graph_kind", "graph_rows", "graph_cols", "graph_k", "graph_p", "graph_seed")
_RUN = _D + ("eta", "iters", "stop_tol", "w0_seed", "epsilon")
_SWEEP = _D + ("values", "runs", "iters", "stop_tol")
_DGD = _D + _G + ("eta", "iters", "stop_tol", "w0_seed")
# the nested commands: their sub-command's dest and their help
_GROUPS = {"run": ("solver", "run a solver experiment"), "sweep": ("param", "sweep one parameter")}
# each command variant: its handler, its help and the options it reads besides _COMMON
_VARIANTS = {
    ("gen",): (_cmd_gen, "generate a dataset", _D),
    ("theory",): (_cmd_theory, "closed-form predictions",
                  _D + ("m", "lambda1", "lambdan", "epsilon")),
    ("run", "gd"): (_cmd_run_solver, "full gradient descent", _RUN),
    ("run", "sgd"): (_cmd_run_solver, "minibatch SGD", _RUN + ("runs", "m", "sampler")),
    ("run", "dgd"): (_cmd_run_dgd, "distributed gradient descent", _DGD + ("mu",)),
    ("sweep", "m"): (_cmd_sweep, "batch sizes at eta*(m)", _SWEEP + ("epsilon",)),
    ("sweep", "eta"): (_cmd_sweep, "learning rates at one batch size", _SWEEP + ("m",)),
    ("sweep", "mu"): (_cmd_sweep_mu, "distributed penalty weights", _DGD + ("values",)),
    ("spectrum",): (_cmd_spectrum, "distributed round-operator spectrum", _D + _G + ("eta", "mu")),
}


def build_parser() -> _Parser:
    """One parser per command variant, each taking exactly its options, none abbreviated."""
    parser = _Parser(prog="gdlab", description=__doc__, allow_abbrev=False,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for variant, (_, help_, names) in _VARIANTS.items():
        if len(variant) == 2 and variant[0] not in groups:
            dest, group_help = _GROUPS[variant[0]]
            group = commands.add_parser(variant[0], help=group_help, allow_abbrev=False)
            groups[variant[0]] = group.add_subparsers(dest=dest, required=True)
        sub = groups[variant[0]] if len(variant) == 2 else commands
        p = sub.add_parser(variant[-1], help=help_, allow_abbrev=False)
        for key in _COMMON + names:
            p.add_argument("--" + key.replace("_", "-"), **_OPTIONS[key])
        p.set_defaults(variant=variant)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:  # its flags go after the variant words, so the command line's win
            k = len(args.variant)
            args = parser.parse_args([*argv[:k], *_config_flags(args.config, args.variant),
                                      *argv[k:]])
        res = _Resolver(args)
        output = _Output(res.get("out", "."))  # before the handler: config keeps its key order
        blocks, statuses, verdicts = _VARIANTS[res.args.variant][0](res, output)
        output.commit(res, blocks, verdicts)
    except (ValueError, OSError) as exc:  # CliError included
        print(f"gdlab: error: {exc}", file=sys.stderr)
        return 1
    failed = [v for v in verdicts if not v["ok"]]
    for v in failed:
        row = f" (row {v['row']})" if "row" in v else ""
        print(f"gdlab: check {v['name']}{row} failed: observed {dumps(v['observed'])}, "
              f"bound {dumps(v['bound'])}, margin {dumps(v['margin'])}", file=sys.stderr)
    return 2 if STATUS_DIVERGED in statuses else 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
