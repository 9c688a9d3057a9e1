"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line (run pytest with
-s to see them); stated runtime budgets are asserted with wall-clock timers.
"""

import json
import os
import time

import numpy as np
import pytest
from oracles import mc_expected_mm, prefix_iterates, prefix_states, range_split

from gdlab.cli import main
from gdlab.distributed import (
    dgd_operator_spectrum,
    make_graph,
    run_dgd,
    stable_eta,
)
from gdlab.presets import build_dataset
from gdlab.problem import gen_dataset, hessian, spectral_summary
from gdlab.solvers import SolverConfig, fit_rate, run_gd, run_sgd
from gdlab.theory import expected_mm, g_eigen, optimal_rate


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def read_summary(out):
    with open(os.path.join(out, "summary.json")) as fh:
        return json.load(fh)


def run_criterion_1(out):
    t0 = time.perf_counter()
    rc = main(["run", "sgd", "--preset", "orthonormal32", "--m", "8",
               "--runs", "500", "--seed", "77", "--out", out])
    elapsed = time.perf_counter() - t0
    return rc, elapsed


def run_criterion_5(base):
    t0 = time.perf_counter()
    results = {}
    for mu in ("0.1", "1", "10"):
        out = os.path.join(base, f"mu_{mu.replace('.', 'p')}")
        rc = main(["run", "dgd", "--preset", "ring16", "--mu", mu,
                   "--seed", "5", "--out", out])
        results[mu] = (rc, out)
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def crit1_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("crit1"))
    rc, elapsed = run_criterion_1(out)
    return rc, out, elapsed


@pytest.fixture(scope="module")
def crit5_run(tmp_path_factory):
    base = str(tmp_path_factory.mktemp("crit5"))
    results, elapsed = run_criterion_5(base)
    return results, base, elapsed


def test_criterion_1_orthonormal_sgd_rate(crit1_run):
    rc, out, elapsed = crit1_run
    s = read_summary(out)
    g_hat = s["empirical"]["g_hat"]
    window = s["empirical"]["fit_window"]
    ok = (rc == 0 and g_hat is not None and 0.70 <= g_hat <= 0.80
          and window[0] == 5 and window[1] <= 41 and elapsed < 10.0)
    report(1, "orthonormal32 eta=m=8 mean-contraction in [0.70, 0.80]", ok,
           f"g_hat={g_hat:.4f}, window={window}, {elapsed:.1f}s")


def test_criterion_2_closed_form_vs_monte_carlo():
    t0 = time.perf_counter()
    ds = build_dataset("gaussian8")
    worst = 0.0
    ok = True
    for i, eta in enumerate((0.25, 0.5)):
        for j, m in enumerate((1.0, 2.0, 4.0, 8.0)):
            E = expected_mm(ds, eta, m)
            evals, vecs = np.linalg.eigh(E)
            vtop = np.abs(vecs[:, -1])
            est, se = mc_expected_mm(ds, eta, m, 100_000, seed=100 * i + j)
            lam_mc = np.linalg.eigvalsh(est)[-1]
            gap = abs(evals[-1] - lam_mc)
            tol = 3.0 * float(vtop @ se @ vtop) + 1e-12
            worst = max(worst, gap / tol)
            ok &= gap <= tol
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(2, "lambda_max(E[M^T M]) within 3 SE of 1e5-draw estimate on 2x4 grid",
           ok, f"worst gap/tol={worst:.3f}, {elapsed:.1f}s")


def test_criterion_3_optimal_rate_is_grid_minimax():
    rng = np.random.default_rng(2024)
    ok = True
    worst = 0.0
    for _ in range(20):
        ln = float(rng.uniform(0.02, 1.5))
        l1 = ln * float(rng.uniform(1.0 + 1e-6, 40.0))
        n = int(rng.integers(2, 128))
        m = float(rng.uniform(0.25, n))
        pred = optimal_rate(m, n, l1, ln)
        etas = np.linspace(1e-7 / l1, 2.0 / ln, 10_000)
        vals = np.maximum(g_eigen(m, n, etas, l1), g_eigen(m, n, etas, ln))
        idx = int(np.argmin(vals))
        neighbors = [vals[k] for k in (idx - 1, idx + 1) if 0 <= k < len(vals)]
        step_tol = max(abs(v - vals[idx]) for v in neighbors)
        gap = abs(pred.g_opt - vals[idx])
        worst = max(worst, gap / (step_tol + 1e-15))
        ok &= gap <= step_tol + 1e-12
    # degenerate spectrum: the vertex value must sit strictly below the
    # two-parabola intersection expression whenever m < n
    for lam, m, n in [(0.5, 2, 8), (1.0, 1, 4), (0.2, 4, 16)]:
        q = 1 / m - 1 / n
        pred = optimal_rate(m, n, lam, lam)
        two_parabola_value = 1.0 - 4 * lam * lam / (2 * lam + q) ** 2
        ok &= pred.g_opt < two_parabola_value
    report(3, "g*(m) equals 1e4-point eta-grid minimax on 20 random tuples", ok,
           f"worst gap/step={worst:.3f}")


def test_criterion_4_gd_limit_rate(tmp_path):
    out = str(tmp_path)
    rc = main(["run", "gd", "--preset", "cond4x16", "--out", out])
    s = read_summary(out)
    g_hat = s["empirical"]["g_hat"]
    eta = s["config"]["eta"]
    ok = (rc == 0 and abs(eta - 1.6) <= 1e-9
          and g_hat is not None and abs(g_hat - 0.36) <= 0.01 * 0.36)
    report(4, "full-batch rate at eta*(n) within 1% of 0.36 (condition number 4)",
           ok, f"eta={eta:.6f}, g_hat={g_hat:.6f}")


def test_criterion_5_dgd_convergence_and_band(crit5_run):
    results, base, elapsed = crit5_run
    ok = elapsed < 60.0
    details = []
    for mu, (rc, out) in results.items():
        s = read_summary(out)
        emp = s["empirical"]
        rate_lower = s["dgd"]["rate_lower"]
        r_hat = emp["r_hat_norm"]
        cell = (rc == 0 and emp["status"] == "converged"
                and emp["final_err_rel"] < 1e-8
                and emp["final_spread_rel"] < 1e-8
                and r_hat is not None
                and rate_lower - 0.02 <= r_hat < 1.0
                and [v["name"] for v in s["verdicts"] if v["ok"]]
                == ["converged", "contracting", "rate_band", "spectral_match"])
        ok &= cell
        details.append(f"mu={mu}: r_hat={r_hat:.6f}, lower={rate_lower:.6f}")
    report(5, "ring16 converges with consensus for mu in {0.1, 1, 10}", ok,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_6_spectral_verification():
    datasets = {
        "orthonormal": gen_dataset(8, 8, "orthonormal", seed=81),
        "gaussian": gen_dataset(8, 8, "gaussian", normalize=True, seed=82),
        "spiked": gen_dataset(8, 8, "spiked", rho=0.9, normalize=True, seed=83),
    }
    rng = np.random.default_rng(99)
    W0 = rng.standard_normal((8, 8))
    ok = True
    worst_rel = 0.0
    for dname, ds in datasets.items():
        lam_min = spectral_summary(hessian(ds)).lambda_min_nz
        for gkind in ("ring", "path", "complete"):
            g = make_graph(gkind, 8)
            mus = (0.1, 1.0, 10.0)
            etas = [stable_eta(ds, g, mu) for mu in mus]
            traces = run_dgd(ds, g, etas, mus, max_iters=15_000, W0=W0)
            for eta, mu, tr in zip(etas, mus, traces):
                sp = dgd_operator_spectrum(ds, g, eta, mu)
                ok &= sp.sigma_min > 0
                ok &= sp.sigma_min <= eta * lam_min + 1e-10
                fit = fit_rate(tr.mean_err_sq_range, tail=True)
                r_hat = float(np.sqrt(fit.rate))
                rel = abs(r_hat - sp.rate_spectral) / sp.rate_spectral
                worst_rel = max(worst_rel, rel)
                ok &= rel <= 0.01
    report(6, "sigma_min in (0, eta*lambda_min] and spectral rate within 1% "
              "across 27 graph/dataset/mu combos", ok, f"worst |dr|/r={worst_rel:.2e}")


def test_criterion_7_null_space_invariance():
    ds = gen_dataset(4, 8, "gaussian", seed=60)
    rp = ds.spectral
    rng = np.random.default_rng(61)
    u = range_split(rp, rng.standard_normal(8))[1]
    u /= np.linalg.norm(u)
    w0 = ds.w_star + range_split(rp, rng.standard_normal(8))[0] + u

    # every iterate of the 100 steps: the final iterate of a t-step run
    steps = range(101)
    cfg_gd = SolverConfig(eta=0.4, m=4, w0=w0)
    cfg_sgd = SolverConfig(eta=0.4, m=2.0, sampler="bernoulli", seed=62, w0=w0)
    iterates = {"gd": prefix_iterates(run_gd, ds, cfg_gd, steps),
                "sgd": prefix_iterates(run_sgd, ds, cfg_sgd, steps),
                "dgd": prefix_states(ds, make_graph("ring", 4), 0.3, 0.5, np.tile(w0, (4, 1)),
                                     steps)}
    drifts = {}
    for name, ws in iterates.items():
        comps = (ws - ds.w_star) @ u
        drifts[name] = float(np.max(np.abs(comps - comps[0])))

    ok = all(v <= 1e-12 for v in drifts.values())
    report(7, "unit null-space component unchanged to 1e-12 over 100 iterations",
           ok, ", ".join(f"{k}={v:.2e}" for k, v in drifts.items()))


def test_criterion_8_saturation_and_cost(tmp_path):
    # saturation batch size is exact on the isotropic preset
    ds = build_dataset("orthonormal32")
    ss = spectral_summary(hessian(ds))
    ok = abs(ss.m_star - 32.0) <= 1e-9 * 32.0

    # spiked sweep: beyond ceil(m*), the optimal contraction is flat to 5%
    out_sp = str(tmp_path / "spiked")
    rc = main(["sweep", "m", "--preset", "spiked64", "--runs", "0", "--out", out_sp])
    ok &= rc == 0
    s = read_summary(out_sp)
    m_star = s["spectral"]["m_star"]
    rows = {r["m"]: r for r in s["rows"]}
    g_full = rows[64.0]["g_opt"]
    import math
    for m, row in rows.items():
        if m >= math.ceil(m_star):
            ok &= abs(row["g_opt"] - g_full) <= 0.05 * g_full

    # cost scaling decreases with batch size on the isotropic preset
    out_on = str(tmp_path / "ortho")
    rc = main(["sweep", "m", "--preset", "orthonormal32", "--runs", "0", "--out", out_on])
    ok &= rc == 0
    rows_on = read_summary(out_on)["rows"]
    scalings = [r["cost_scaling"] for r in rows_on if r["cost_scaling"] is not None]
    ok &= all(a > b for a, b in zip(scalings, scalings[1:]))
    report(8, "m* = n on orthonormal; g*(m) flat past ceil(m*) on spiked64; "
              "cost scaling decreasing", ok,
           f"m*={ss.m_star:.12f}, spiked m*={m_star:.3f}")


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_criterion_9_byte_identical_reruns(crit1_run, crit5_run, tmp_path):
    _, out1, _ = crit1_run
    out1b = str(tmp_path / "crit1_again")
    rc, _ = run_criterion_1(out1b)
    ok = rc == 0
    names1 = sorted(n for n in os.listdir(out1) if n.endswith(".csv"))
    ok &= len(names1) == 501  # 500 runs + mean.csv
    for name in names1:
        ok &= _read_bytes(os.path.join(out1, name)) == _read_bytes(os.path.join(out1b, name))

    results5, _, _ = crit5_run
    base5b = str(tmp_path / "crit5_again")
    results5b, _ = run_criterion_5(base5b)
    for mu, (rc_a, out_a) in results5.items():
        rc_b, out_b = results5b[mu]
        ok &= rc_b == rc_a
        ok &= _read_bytes(os.path.join(out_a, "trace.csv")) == \
            _read_bytes(os.path.join(out_b, "trace.csv"))
    report(9, "criteria 1 and 5 reruns are byte-identical", ok)
