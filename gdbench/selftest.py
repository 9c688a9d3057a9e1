"""Self-test of the benchmark's correctness checks.

    python3 gdbench/selftest.py

Runs each workload's gdlab command once (the SGD ensemble and the mu sweep
at a reduced size), requires every check to pass on the real outputs, then
corrupts a copy of those outputs once per check and requires that check to
fail.  A check that no corruption can trip would pass vacuously; each one
here is shown to fail.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import run as bench  # noqa: E402  (first: it pins the BLAS thread count)
import numpy as np  # noqa: E402
from gdlab import cli  # noqa: E402

import workloads as W  # noqa: E402

SGD_RUNS = 400
DGD_MUS = (1.0,)


# ---------------------------------------------------------------- file edits

def _edit_json(path, fn):
    with open(path) as fh:
        doc = json.load(fh)
    fn(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _edit_csv(path, fn):
    """Apply fn to the numeric table (a float array); keep the header."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header, body = lines[0], [line.split(",") for line in lines[1:]]
    table = np.array([[float(v) if v not in ("", "true", "false", "pass", "fail") else np.nan
                       for v in row] for row in body])
    table = fn(table)
    out = [header] + [",".join(repr(float(v)) if np.isfinite(v) else orig
                               for v, orig in zip(row, body[min(i, len(body) - 1)]))
                      for i, row in enumerate(table)]
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")


def _col(j, fn):
    def apply(table):
        table = table.copy()
        table[:, j] = fn(table[:, j], np.arange(len(table)))
        return table
    return apply


def _run_files(out):
    return sorted(n for n in os.listdir(out) if n.startswith("run_"))


# ---------------------------------------------------------------- corruptions

def sgd_corruptions():
    def each_run(fn):
        def apply(out):
            for name in _run_files(out):
                _edit_csv(os.path.join(out, name), fn)
        return apply

    def rate(out):
        # steeper decay in every run and in the mean alike: only the rate moves
        faster = _col(1, lambda v, t: v * 0.9 ** t)
        each_run(faster)(out)
        _edit_csv(os.path.join(out, "mean.csv"), faster)

    return {
        "files": lambda out: os.remove(os.path.join(out, _run_files(out)[1])),
        "shape": lambda out: _edit_csv(os.path.join(out, _run_files(out)[0]), lambda t: t[:-1]),
        "mean_csv": lambda out: _edit_csv(os.path.join(out, "mean.csv"),
                                          _col(1, lambda v, t: v * np.where(t == 10, 1 + 1e-9, 1))),
        "rate": rate,
        "batch": each_run(_col(3, lambda v, t: np.where(t > 0, v + 1, v))),
        "eta": lambda out: _edit_json(os.path.join(out, W.SUMMARY),
                                      lambda d: d["config"].update(eta=d["config"]["eta"] * 1.01)),
        "status": lambda out: _edit_json(os.path.join(out, W.SUMMARY),
                                         lambda d: d["empirical"]["statuses"].update(diverged=1)),
        "inputs": lambda out: _edit_json(os.path.join(out, W.DATASET),
                                         lambda d: d["w_star"].__setitem__(0, d["w_star"][0] + 1)),
    }


def dgd_corruptions():
    trace = "trace_000.csv"

    def on_trace(fn):
        return lambda out: _edit_csv(os.path.join(out, trace), fn)

    def on_sweep(j, fn):
        return lambda out: _edit_csv(os.path.join(out, "sweep.csv"), _col(j, fn))

    return {
        "files": lambda out: os.remove(os.path.join(out, trace)),
        "shape": on_trace(lambda t: t[:5]),
        "eta": on_sweep(1, lambda v, t: v * 1.01),
        "null_space": on_sweep(2, lambda v, t: v * 0.0),
        "rate_operator": on_trace(_col(1, lambda v, t: v * 0.98 ** t)),
        "rate_lower_bound": on_trace(_col(1, lambda v, t: v * 0.9 ** t)),
        "final_error": on_trace(lambda t: t[: len(t) // 10]),
        "final_spread": on_trace(_col(3, lambda v, t: np.where(t == len(t) - 1, v * 1e4, v))),
        "inputs": lambda out: _edit_json(os.path.join(out, W.GRAPH),
                                         lambda d: d["edges"].pop()),
    }


def spectrum_corruptions():
    def dgd(**changes):
        def apply(out):
            def edit(d):
                for key, fn in changes.items():
                    d["dgd"][key] = fn(d["dgd"][key])
            _edit_json(os.path.join(out, W.SUMMARY), edit)
        return apply

    return {
        "files": lambda out: os.remove(os.path.join(out, W.GRAPH)),
        "computed": dgd(skipped=lambda v: True),
        "eta": lambda out: _edit_json(os.path.join(out, W.SUMMARY),
                                      lambda d: d["config"].update(eta=d["config"]["eta"] * 1.01)),
        "sigma_min": dgd(sigma_min=lambda v: 0.0),
        "sigma_min/above_bound": lambda out: _edit_json(
            os.path.join(out, W.SUMMARY), lambda d: d["dgd"].update(
                sigma_min=1.01 * d["config"]["eta"] * d["spectral"]["lambda_min_nz"])),
        "sigma_max_gershgorin": dgd(sigma_max=lambda v: 10.0),
        "sigma_max_estimate": dgd(sigma_max=lambda v: v * (1 - 1e-6)),
        "rates": dgd(rate_lower=lambda v: v + 1e-6),
        "inputs": lambda out: _edit_json(os.path.join(out, W.DATASET),
                                         lambda d: d["X"][0].__setitem__(0, d["X"][0][0] * 2)),
    }


# ---------------------------------------------------------------- running the checks

def _argv(wl, seed, in_dir, out):
    argv = wl.argv(seed, in_dir, out)
    if wl.name == "sgd_ensemble":
        argv[argv.index("--runs") + 1] = str(SGD_RUNS)
    if wl.name == "dgd_mu_sweep":
        argv[argv.index("--values") + 1] = ",".join(f"{m:g}" for m in DGD_MUS)
    return argv


def _check(wl, out, in_dir):
    if wl.name == "sgd_ensemble":
        return W.check_sgd(out, in_dir, runs=SGD_RUNS)
    if wl.name == "dgd_mu_sweep":
        return W.check_dgd(out, in_dir, mus=DGD_MUS)
    return wl.check(out, in_dir)


def selftest_workload(wl, corruptions, tmp, seed=3):
    problems = []
    in_dir, good = os.path.join(tmp, "in"), os.path.join(tmp, "good")
    os.makedirs(in_dir)
    wl.build_inputs(seed, in_dir)
    rc = cli.main(_argv(wl, seed, in_dir, good))
    base = _check(wl, good, in_dir)
    if rc != 0 or base.failed:
        return [f"{wl.name}: real outputs fail (rc={rc}): {base.failed}"]
    unexercised = set(base.passed) - {name.split("/")[0] for name in corruptions}
    if unexercised:
        problems.append(f"{wl.name}: no corruption for checks {sorted(unexercised)}")
    for name, corrupt in corruptions.items():
        bad = os.path.join(tmp, "bad")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(good, bad)
        corrupt(bad)
        if bench.digest(bad) == bench.digest(good):
            problems.append(f"{wl.name}/{name}: corruption left the bytes unchanged")
        failed = _check(wl, bad, in_dir).failed
        verdict = "caught" if name.split("/")[0] in failed else "MISSED"
        print(f"{wl.name:14s} {name:22s} {verdict}  {sorted(failed)}")
        if verdict == "MISSED":
            problems.append(f"{wl.name}/{name}: check passed on corrupted output")
    return problems


def main():
    table = {"sgd_ensemble": sgd_corruptions(), "dgd_mu_sweep": dgd_corruptions(),
             "spectrum_4096": spectrum_corruptions()}
    problems = []
    os.makedirs(bench.WORK, exist_ok=True)
    for name, corruptions in table.items():
        with tempfile.TemporaryDirectory(dir=bench.WORK) as tmp:
            problems += selftest_workload(W.WORKLOADS[name], corruptions, tmp)
    for p in problems:
        print("SELFTEST FAILED:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
