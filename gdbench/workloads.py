"""The three benchmark workloads: their inputs, their gdlab command, and the
checks of that command's outputs.

Inputs are built here with numpy alone and written in the JSON layout that
`gdlab` reads (`--dataset`, `--graph`), so the program receives only the
generated files.  Every check recomputes what it compares against from those
files (or from properties the method must have); none compares against a
stored copy of earlier output.

Work per command does not depend on the seed: every orthonormal dataset has
the same curvature, the ring16 problem is only rotated, and the dense
spectrum size is fixed.  So a seed changes the numbers the program handles
but not how much it has to do, and counts repeat exactly across seeds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

DATASET = "dataset.json"
GRAPH = "graph.json"
SUMMARY = "summary.json"


# ------------------------------------------------------------------ inputs

def _ring_edges(n):
    return sorted({(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)})


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _write_dataset(path, X, w_star, kind, seed):
    # the same reduction as gdlab's labels, so every sample is fit exactly
    y = np.sum(X * w_star, axis=1)
    _write_json(path, {
        "n": X.shape[0], "d": X.shape[1], "normalized": True, "seed": seed,
        "kind": kind, "X": X.tolist(), "y": y.tolist(), "w_star": w_star.tolist(),
    })


def _write_ring(path, n):
    _write_json(path, {"n": n, "kind": "ring", "params": {}, "seed": 0,
                       "edges": [list(e) for e in _ring_edges(n)]})


def _orthonormal_rows(rng, n, d):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return (Q * signs)[:n].copy()


def _unit_gaussian_rows(rng, n, d):
    X = rng.standard_normal((n, d)) / math.sqrt(d)
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def build_sgd_inputs(seed, in_dir):
    """orthonormal32: 32 orthonormal rows in 32 dimensions, so H = I/32 for
    every seed; the seed picks the rows and the planted parameter."""
    rng = np.random.default_rng([seed, 32])
    X = _orthonormal_rows(rng, 32, 32)
    _write_dataset(os.path.join(in_dir, DATASET), X, rng.standard_normal(32), "orthonormal", seed)


def build_dgd_inputs(seed, in_dir):
    """ring16 rotated: the ring16 preset's dataset (16 unit gaussian rows in 32
    dimensions, generation seed 160) times a seeded random rotation R, with
    w_star rotated alike.  Rotation keeps the spectrum of H and of the round
    operator, and with the zero start every error trajectory is the rotated
    one, so each mu takes the same number of rounds for every seed."""
    base = np.random.default_rng(160)
    X = _unit_gaussian_rows(base, 16, 32)
    w_star = base.standard_normal(32)
    R = _orthonormal_rows(np.random.default_rng([seed, 16]), 32, 32)
    _write_dataset(os.path.join(in_dir, DATASET), X @ R, R.T @ w_star, "gaussian", seed)
    _write_ring(os.path.join(in_dir, GRAPH), 16)


def build_spectrum_inputs(seed, in_dir):
    """32 unit gaussian rows in 128 dimensions on a ring: n*d = 4096, the
    largest dense round operator gdlab admits, and n < d so H has a null
    space."""
    rng = np.random.default_rng([seed, 4096])
    X = _unit_gaussian_rows(rng, 32, 128)
    _write_dataset(os.path.join(in_dir, DATASET), X, rng.standard_normal(128), "gaussian", seed)
    _write_ring(os.path.join(in_dir, GRAPH), 32)


# ------------------------------------------------------------------ helpers

class Checks:
    """Collects named check outcomes; a failed check keeps its message."""

    def __init__(self):
        self.failed: dict[str, str] = {}
        self.passed: list[str] = []

    def expect(self, name, ok, detail=""):
        if ok:
            self.passed.append(name)
        else:
            self.failed.setdefault(name, detail)
        return ok


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _csv(path, usecols=None):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=usecols)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _curvature(X):
    """Nonzero eigenvalues of H = X^T X / n and the rank, from our own solve."""
    lam = np.linalg.eigvalsh(X.T @ X / X.shape[0])
    nz = lam[lam > 1e-10 * lam[-1]]
    return nz, len(nz)


def _files_present(c, out, expected):
    summary_path = os.path.join(out, SUMMARY)
    if not c.expect("files", os.path.isfile(summary_path), "summary.json missing"):
        return None
    s = _load(summary_path)
    listed = set(s.get("files", []))
    on_disk = set(os.listdir(out)) - {SUMMARY}
    missing = sorted(set(expected) - on_disk)
    c.expect("files", not missing and listed == on_disk == set(expected),
             f"missing {missing[:3]}, listed {len(listed)}, on disk {len(on_disk)}, "
             f"expected {len(expected)}")
    return s if not missing else None


def _stable_eta(X, edges, mu):
    xmax = float(np.max(np.sum(X * X, axis=1)))
    deg = np.bincount(np.asarray(edges).ravel(), minlength=X.shape[0])
    return min(0.5 / xmax, 1.0 / (xmax + 2.0 * mu * deg.max()))


def _laplacian(n, edges):
    L = np.zeros((n, n))
    for i, j in edges:
        L[i, i] += 1.0
        L[j, j] += 1.0
        L[i, j] -= 1.0
        L[j, i] -= 1.0
    return L


def _inputs_match(c, out, in_dir, names):
    for name in names:
        a, b = _load(os.path.join(out, name)), _load(os.path.join(in_dir, name))
        same = all(np.array_equal(np.asarray(a[k]), np.asarray(b[k]))
                   for k in (("X", "y", "w_star") if name == DATASET else ("n", "edges")))
        c.expect("inputs", same, f"{name} written by gdlab differs from the input")


# ------------------------------------------------------------------ sgd_ensemble

SGD_M = 8.0
SGD_ITERS = 40
SGD_RUNS = 4000


def sgd_g(eta, lam, m, n):
    """Bernoulli-SGD contraction of E|e|^2 along eigenvalue lam:
    (1 - eta lam)^2 + (eta^2 lam / m)(1 - m/n)."""
    return (1.0 - eta * lam) ** 2 + (eta * eta * lam / m) * (1.0 - m / n)


def sgd_eta_star(lam, m, n):
    """Learning rate minimizing the worst contraction over the spectrum.
    g is convex in lam, so the worst case sits at lambda_max or lambda_min."""
    from scipy.optimize import minimize_scalar

    ends = (float(lam.max()), float(lam.min()))
    worst = lambda eta: max(sgd_g(eta, l, m, n) for l in ends)  # noqa: E731
    hi = 2.0 / (ends[0] + 1.0 / m - 1.0 / n)
    return minimize_scalar(worst, bounds=(0.0, hi), method="bounded",
                           options={"xatol": 1e-13}).x


def check_sgd(out, in_dir, runs=SGD_RUNS) -> Checks:
    c = Checks()
    m, iters = SGD_M, SGD_ITERS
    width = max(3, len(str(runs - 1)))
    run_names = [f"run_{k:0{width}d}.csv" for k in range(runs)]
    s = _files_present(c, out, run_names + ["mean.csv", DATASET])
    if s is None:
        return c
    _inputs_match(c, out, in_dir, [DATASET])
    c.expect("status", s["empirical"]["statuses"] == {"max-iters": runs},
             f"statuses {s['empirical']['statuses']}")

    errs, batches = [], []
    for name in run_names:
        header, rows = _csv(os.path.join(out, name))
        if not c.expect("shape", header == ["t", "err_sq_range", "loss", "batch_size"]
                        and rows.shape == (iters + 1, 4)
                        and np.array_equal(rows[:, 0], np.arange(iters + 1)),
                        f"{name}: header {header}, shape {rows.shape}"):
            return c
        errs.append(rows[:, 1])
        batches.append(rows[1:, 3])
    E = np.array(errs)
    mean = np.array([math.fsum(col) / runs for col in E.T])

    header, mean_rows = _csv(os.path.join(out, "mean.csv"))
    c.expect("mean_csv", header == ["t", "mean_err_sq_range"] and mean_rows.shape == (iters + 1, 2)
             and bool(np.all(np.abs(mean_rows[:, 1] - mean) <= 1e-12 * mean)),
             "mean.csv is not the mean of the run files")

    X = np.array(_load(os.path.join(out, DATASET))["X"])
    n = X.shape[0]
    lam, _ = _curvature(X)
    eta = float(s["config"]["eta"])
    eta_star = sgd_eta_star(lam, m, n)
    c.expect("eta", _rel(eta, eta_star) <= 1e-6, f"eta {eta} vs own eta* {eta_star}")
    g_pred = max(sgd_g(eta, l, m, n) for l in (lam.max(), lam.min()))

    # E[e_t] = g^t e_0 for the ensemble mean; its relative standard error
    # se(t) = sd(e_t) / (mean(e_t) sqrt(runs)) grows with t as fewer runs
    # carry the error, so fit log(mean) only while se <= 5%.  The fitted
    # slope's standard error is then about se(end) / end (simulated
    # ensembles of this model give z-scores with unit spread); allow five.
    se = E.std(axis=0, ddof=1) / (mean * math.sqrt(runs))
    bad = np.nonzero(~(se <= 0.05))[0]
    end = int(bad[0]) - 1 if len(bad) else iters
    if c.expect("rate", end >= 5, f"ensemble too small: mean reliable only to t={end}"):
        t = np.arange(end + 1)
        slope = np.polyfit(t, np.log(mean[: end + 1]), 1)[0]
        tol = 5.0 * se[end] / end
        c.expect("rate", abs(slope - math.log(g_pred)) <= tol,
                 f"fitted g {math.exp(slope):.5f} vs predicted {g_pred:.5f} "
                 f"(log tolerance {tol:.2e}, window 0..{end})")

    B = np.concatenate(batches)
    tol_b = 5.0 * math.sqrt(m * (1.0 - m / n) / len(B))
    c.expect("batch", abs(B.mean() - m) <= tol_b,
             f"mean batch {B.mean():.4f} vs m={m} (tolerance {tol_b:.4f})")
    return c


# ------------------------------------------------------------------ dgd_mu_sweep

DGD_MUS = (0.1, 1.0, 10.0)
DGD_ITERS = 250_000


def tail_rate(curve):
    """Error-norm rate from a log-linear fit to the later half of the squared
    error curve, stopped before it falls below 1e-12 of its start."""
    below = np.nonzero(curve < 1e-12 * curve[0])[0]
    end = int(below[0]) if len(below) else len(curve)
    start = end // 2
    if end - start < 3:
        return None
    slope = np.polyfit(np.arange(start, end), np.log(curve[start:end]), 1)[0]
    return math.sqrt(math.exp(slope))


def operator_rate(X, edges, eta, mu_iter, null_dim):
    """Spectral radius of I - Q off Q's null space, Q = eta blockdiag(x_i x_i^T)
    + mu_iter (L kron I); returns (rate, eigenvalues)."""
    n, d = X.shape
    Q = mu_iter * np.kron(_laplacian(n, edges), np.eye(d))
    for i in range(n):
        Q[i * d:(i + 1) * d, i * d:(i + 1) * d] += eta * np.outer(X[i], X[i])
    sig = np.linalg.eigvalsh(Q)
    return float(np.max(np.abs(1.0 - sig[null_dim:]))), sig


def check_dgd(out, in_dir, mus=DGD_MUS) -> Checks:
    c = Checks()
    traces = [f"trace_{i:03d}.csv" for i in range(len(mus))]
    s = _files_present(c, out, traces + ["sweep.csv", DATASET, GRAPH])
    if s is None:
        return c
    _inputs_match(c, out, in_dir, [DATASET, GRAPH])
    X = np.array(_load(os.path.join(out, DATASET))["X"])
    edges = [tuple(e) for e in _load(os.path.join(out, GRAPH))["edges"]]
    n, d = X.shape
    lam, rank = _curvature(X)
    null_dim = d - rank
    header, sweep = _csv(os.path.join(out, "sweep.csv"), usecols=(0, 1, 2))
    if not c.expect("shape", sweep.shape[0] == len(mus) and header[:3] == ["mu", "eta", "mu_iter"],
                    f"sweep.csv shape {sweep.shape}"):
        return c
    for i, mu in enumerate(mus):
        tag = f"mu={mu:g}"
        eta, mu_iter = float(sweep[i, 1]), float(sweep[i, 2])
        c.expect("eta", _rel(eta, _stable_eta(X, edges, mu)) <= 1e-12
                 and _rel(mu_iter, eta * mu) <= 1e-12, f"{tag}: eta {eta}, mu_iter {mu_iter}")
        rate, sig = operator_rate(X, edges, eta, mu_iter, null_dim)
        c.expect("null_space", int(np.count_nonzero(sig < 1e-9 * sig[-1])) == null_dim,
                 f"{tag}: operator null space is not d - rank(H) = {null_dim}")
        header, tr = _csv(os.path.join(out, traces[i]))
        if not c.expect("shape", header[:4] == ["t", "mean_err_sq_range", "edge_spread",
                                                "global_spread"] and tr.shape[0] > 10,
                        f"{traces[i]}: header {header}, rows {tr.shape[0]}"):
            continue
        err, spread = tr[:, 1], tr[:, 3]
        r_hat = tail_rate(err)
        if not c.expect("rate_operator", r_hat is not None, f"{tag}: no fit window"):
            continue
        c.expect("rate_operator", abs(r_hat - rate) <= 0.01 * rate,
                 f"{tag}: fitted rate {r_hat:.6f} vs operator {rate:.6f}")
        lower = 1.0 - eta * float(lam.min()) - 0.02
        c.expect("rate_lower_bound", r_hat >= lower, f"{tag}: rate {r_hat:.6f} < {lower:.6f}")
        c.expect("final_error", err[-1] / err[0] < 1e-8, f"{tag}: final err rel {err[-1] / err[0]:.3e}")
        # the zero start is a consensus state, so the spread is measured
        # against its peak rather than its (zero) start
        c.expect("final_spread", spread[-1] / spread.max() < 1e-8,
                 f"{tag}: final spread rel {spread[-1] / spread.max():.3e}")
    return c


# ------------------------------------------------------------------ spectrum_4096

SPECTRUM_MU = 1.0


def check_spectrum(out, in_dir) -> Checks:
    from scipy.sparse.linalg import LinearOperator, eigsh

    c = Checks()
    mu = SPECTRUM_MU
    s = _files_present(c, out, [DATASET, GRAPH])
    if s is None:
        return c
    _inputs_match(c, out, in_dir, [DATASET, GRAPH])
    dg = s["dgd"]
    if not c.expect("computed", dg.get("skipped") is False, f"spectrum skipped: {dg.get('reason')}"):
        return c
    X = np.array(_load(os.path.join(out, DATASET))["X"])
    edges = [tuple(e) for e in _load(os.path.join(out, GRAPH))["edges"]]
    n, d = X.shape
    lam, _ = _curvature(X)
    eta, mu_iter = float(s["config"]["eta"]), float(s["config"]["mu_iter"])
    c.expect("eta", _rel(eta, _stable_eta(X, edges, mu)) <= 1e-12 and _rel(mu_iter, eta * mu) <= 1e-12,
             f"eta {eta}, mu_iter {mu_iter}")
    s_min, s_max = float(dg["sigma_min"]), float(dg["sigma_max"])
    bound = eta * float(lam.min())
    c.expect("sigma_min", 0.0 < s_min <= bound * (1 + 1e-9), f"sigma_min {s_min} vs eta*lambda_min_nz {bound}")

    L = _laplacian(n, edges)
    deg = np.diag(L)
    gershgorin = float(np.max(eta * np.abs(X) * np.abs(X).sum(axis=1, keepdims=True)
                              + 2.0 * mu_iter * deg[:, None]))
    c.expect("sigma_max_gershgorin", s_max <= gershgorin * (1 + 1e-12),
             f"sigma_max {s_max} above Gershgorin bound {gershgorin}")

    def matvec(v):
        V = v.reshape(n, d)
        return (eta * np.sum(X * V, axis=1)[:, None] * X + mu_iter * (L @ V)).ravel()

    op = LinearOperator((n * d, n * d), matvec=matvec, dtype=float)
    est = float(eigsh(op, k=1, which="LA", tol=1e-13, v0=np.ones(n * d),
                      return_eigenvectors=False)[0])
    c.expect("sigma_max_estimate", _rel(s_max, est) <= 1e-8, f"sigma_max {s_max} vs Lanczos {est}")
    c.expect("rates", _rel(float(dg["rate_lower"]), 1.0 - bound) <= 1e-9
             and _rel(float(dg["rate_spectral"]), max(1.0 - s_min, s_max - 1.0)) <= 1e-9
             and dg["stable"] == (s_max < 2.0), "rate_lower / rate_spectral / stable inconsistent")
    return c


# ------------------------------------------------------------------ registry

@dataclass(frozen=True)
class Workload:
    name: str
    build_inputs: Callable[[int, str], None]  # (seed, in_dir)
    argv: Callable[[int, str, str], list]  # (seed, in_dir, out_dir) -> gdlab argv
    check: Callable[[str, str], Checks]  # (out_dir, in_dir)


def _sgd_argv(seed, in_dir, out):
    return ["run", "sgd", "--dataset", os.path.join(in_dir, DATASET), "--m", f"{SGD_M:g}",
            "--runs", str(SGD_RUNS), "--iters", str(SGD_ITERS), "--stop-tol", "0",
            "--seed", str(seed), "--out", out]


def _dgd_argv(seed, in_dir, out):
    return ["sweep", "mu", "--dataset", os.path.join(in_dir, DATASET),
            "--graph", os.path.join(in_dir, GRAPH), "--values", ",".join(f"{m:g}" for m in DGD_MUS),
            "--iters", str(DGD_ITERS), "--stop-tol", "1e-16", "--seed", str(seed), "--out", out]


def _spectrum_argv(seed, in_dir, out):
    return ["spectrum", "--dataset", os.path.join(in_dir, DATASET),
            "--graph", os.path.join(in_dir, GRAPH), "--mu", f"{SPECTRUM_MU:g}",
            "--seed", str(seed), "--out", out]


WORKLOADS = {
    "sgd_ensemble": Workload("sgd_ensemble", build_sgd_inputs, _sgd_argv, check_sgd),
    "dgd_mu_sweep": Workload("dgd_mu_sweep", build_dgd_inputs, _dgd_argv, check_dgd),
    "spectrum_4096": Workload("spectrum_4096", build_spectrum_inputs, _spectrum_argv, check_spectrum),
}
