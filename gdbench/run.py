"""Benchmark of the gdlab command line.

    python3 gdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's gdlab command again and again, each time in a fresh
process, for about S seconds: another command starts while at least half of
it fits (at least one command; two when traced).  Every command gets the
same inputs, built from --seed, so their outputs must be byte-identical; the
first one's outputs are checked against values this benchmark computes
itself (see workloads.py).

The last line on stdout is one JSON object: `correct`, `attempted`,
`failed` (commands that exited non-zero) and `metrics`.  With --trace 0 the
metrics are the end-to-end ones: means over the commands of wall_s (inputs
ready to outputs written) and cpu_s (whole process), the median of
peak_rss_mb, and the median of setup_s (interpreter start, gdlab import and
input building) over the commands and a few set-up-only processes.  With --trace 1 untraced and
traced commands alternate; the metrics are per-layer figures for one command
from the traced ones, and the tracing overhead.  Spans are written to
gdbench/.work/spans/.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

# one BLAS thread in this process and, by inheritance, in every command it
# starts: both sides of any comparison must use the same count, and a single
# thread is the steadiest on a small shared machine
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 6
RUN_LIMIT_S = 170.0  # a run must end within 180 s, hung commands included

sys.path.insert(0, HERE)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class ChildResult:
    def __init__(self, doc, rc, cpu_s, t_spawn, stderr):
        self.doc, self.rc, self.cpu_s = doc, rc, cpu_s
        self.t_spawn, self.stderr = t_spawn, stderr

    @property
    def ok(self):
        return self.rc == 0 and self.doc is not None and self.doc.get("rc", 0) == 0

    @property
    def setup_s(self):
        return self.doc["t_ready"] - self.t_spawn

    @property
    def wall_s(self):
        return self.doc["t_done"] - self.doc["t_start"]

    @property
    def rss_mb(self):
        return self.doc["peak_rss_mb"]


def spawn(args, scratch, timeout):
    """Run child.py with `args`; CPU time comes from wait4, so it covers the
    whole process and anything it waited for."""
    out_path, err_path = os.path.join(scratch, "stdout"), os.path.join(scratch, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, *args], stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        lines = fh.read().strip().splitlines()
    with open(err_path) as fh:
        stderr = fh.read()
    doc = None
    if lines:
        try:
            doc = json.loads(lines[-1])
        except json.JSONDecodeError:
            doc = None
    return ChildResult(doc, proc.returncode, ru.ru_utime + ru.ru_stime, t_spawn, stderr)


def digest(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def layer_metrics(layers):
    """Per-layer figures for one command from the aggregated spans."""
    def get(key, field):
        return layers.get(key, {}).get(field, 0)

    rounds = get("distributed.dgd_step", "calls")
    iters = get("solvers.run_solver", "work")

    def per_round(seconds):
        return seconds / rounds * 1e6 if rounds else 0.0

    loop_s = get("solvers.run_sgd", "self_s") + get("solvers.run_gd", "self_s")
    return {
        "distributed.us_per_round": per_round(get("distributed.run_dgd", "incl_s")),
        "distributed.step_us_per_round": per_round(get("distributed.dgd_step", "incl_s")),
        "distributed.metrics_us_per_round": per_round(get("distributed.consensus_metrics", "incl_s")),
        "distributed.loop_self_us_per_round": per_round(get("distributed.run_dgd", "self_s")),
        "distributed.rounds": rounds,
        "distributed.incidence_builds": get("distributed.incidence", "calls"),
        "distributed.spectrum_s": get("distributed.dgd_operator_spectrum", "incl_s"),
        "distributed.spectrum_calls": get("distributed.dgd_operator_spectrum", "calls"),
        "solvers.us_per_iter": loop_s / iters * 1e6 if iters else 0.0,
        "solvers.iterations": iters,
        "solvers.run_solver_s": get("solvers.run_solver", "incl_s"),
        "problem.range_projector_s": get("problem.range_projector", "incl_s"),
        "problem.eigensolves": get("problem.range_projector", "calls")
        + get("problem.spectral_summary", "calls"),
        "io.csv_text_s": get("io.csv_text", "incl_s"),
        "io.dumps_s": get("io.dumps", "incl_s"),
        "io.write_s": get("io.atomic_write_text", "incl_s"),
        "io.files_written": get("io.atomic_write_text", "calls"),
        "io.mb_written": get("io.atomic_write_text", "work") / 1e6,
        "cli.self_s": get("cli.main", "self_s"),
    }


def metric_units():
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count()}


def run(workload, seed, seconds, trace):
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    t_run = time.monotonic()

    def time_left():
        return t_run + RUN_LIMIT_S - time.monotonic()

    base = os.path.join(WORK, workload)
    shutil.rmtree(base, ignore_errors=True)
    in_dir, out_dir = os.path.join(base, "in"), os.path.join(base, "out")
    spans_dir = os.path.join(WORK, "spans")
    for d in (in_dir, spans_dir):
        os.makedirs(d, exist_ok=True)
    log(f"gdbench {workload} seed={seed} seconds={seconds} trace={trace} env={json.dumps(environment())}")

    # the first process compiles bytecode and fills the file cache; only
    # the ones after it are timed
    setups = []
    for k in range(1 + SETUP_PROBES):
        r = spawn([workload, str(seed), in_dir, out_dir, "setup"], base, time_left())
        if not r.ok:
            log(r.stderr)
            raise SystemExit(f"gdbench: input set-up failed for {workload}")
        if k:
            setups.append(r.setup_s)

    plain, traced, failures = [], [], {}
    attempted = failed = 0
    reference = None
    measured = 0.0
    while True:
        tracing = trace and attempted % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        spans = os.path.join(spans_dir, f"{workload}_seed{seed}_op{attempted}.npz")
        t_spawned = time.monotonic()
        r = spawn([workload, str(seed), in_dir, out_dir, "trace" if tracing else "run", spans],
                  base, time_left())
        last_s = time.monotonic() - t_spawned
        attempted += 1
        if not r.ok:
            failed += 1
            log(f"  op {attempted}: FAILED rc={r.rc} doc={r.doc}\n{r.stderr[-2000:]}")
        else:
            setups.append(r.setup_s)
            (traced if tracing else plain).append(r)
            d = digest(out_dir)
            if reference is None:
                reference = d
                try:
                    checks = wl.check(out_dir, in_dir)
                except Exception as exc:  # malformed output: a failed check, not a crash
                    failures["readable"] = f"{type(exc).__name__}: {exc}"
                else:
                    failures.update(checks.failed)
                    log(f"  checks passed: {sorted(set(checks.passed))}  failed: {checks.failed}")
            elif d != reference:
                failures["byte_identical"] = f"op {attempted} output differs from the first"
            log(f"  op {attempted}{' traced' if tracing else ''}: wall {r.wall_s:.3f}s "
                f"setup {r.setup_s:.3f}s cpu {r.cpu_s:.3f}s rss {r.rss_mb:.1f}MB")
        # start another command only if at least half of it fits in the
        # remaining seconds, so a run spends about `seconds` in commands
        # whatever their length; checks and digests are not counted
        measured += last_s
        if (measured + last_s / 2 >= seconds and attempted >= (2 if trace else 1)
                or time_left() < 1.0):
            break

    if not plain or (trace and not traced):
        raise SystemExit(f"gdbench: no successful command in {attempted} attempts")
    for name, detail in failures.items():
        log(f"  CHECK FAILED {name}: {detail}")

    med = statistics.median
    units = metric_units()
    if not trace:
        # times are means over the commands: the host's speed drifts in phases
        # of seconds to minutes, and the mean of a run's commands follows the
        # run's average speed more steadily than the median of a few of them
        mean = statistics.fmean
        metrics = {"wall_s": mean(r.wall_s for r in plain), "setup_s": med(setups),
                   "cpu_s": mean(r.cpu_s for r in plain), "peak_rss_mb": med(r.rss_mb for r in plain)}
    else:
        per_op = [layer_metrics(r.doc["layers"]) for r in traced]
        counts = [k for k in per_op[0] if units[k] == "count"]
        if any(m[k] != per_op[0][k] for m in per_op for k in counts):
            failures["trace_counts"] = "per-command counts differ between traced commands"
        metrics = {k: med(m[k] for m in per_op) for k in per_op[0]}
        metrics["trace.wall_s"] = med(r.wall_s for r in traced)
        metrics["trace.untraced_wall_s"] = med(r.wall_s for r in plain)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gdlab", "cli.py")):
        log(f"gdbench: no gdlab sources under {os.path.join(ROOT, 'src')}")
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"gdbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        return 2
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
