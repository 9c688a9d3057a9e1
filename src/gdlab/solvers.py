"""Sequential solvers: full gradient descent and Bernoulli/fixed minibatch SGD.

Updates are matrix-free and touch only (x_i, y_i); the planted parameter is
used for diagnostics alone.  Each trace records, per iteration, the squared
error projected onto range(H), the quadratic loss, and the realized batch
size.  Runs are bit-reproducible from (dataset, config).

Every solver, the distributed one included, runs through one loop (_drive)
that steps one state at a time and computes the trace rows of a block of
states with one metrics call, so a row costs a few large numpy calls rather
than many small ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .problem import Dataset

DIVERGENCE_FACTOR = 1e12

SAMPLER_FULL = "full"
SAMPLER_BERNOULLI = "bernoulli"
SAMPLER_FIXED = "fixed"

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max-iters"
STATUS_DIVERGED = "diverged"


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters.

    stop_tol is relative to the initial projected squared error; zero means
    run the full max_iters.  m is the mean batch size for the bernoulli
    sampler (fractional values allowed) and is rounded to the nearest integer
    >= 1 for the fixed sampler, which still uses eta/m as written.
    """

    eta: float
    m: float
    sampler: str = SAMPLER_FULL
    max_iters: int = 1000
    stop_tol: float = 0.0
    seed: int = 0
    w0: np.ndarray | None = None
    record_iterates: bool = False

    def validate(self, n: int) -> None:
        if not 0 <= self.eta < math.inf:
            raise ValueError(f"learning rate must be nonnegative and finite: eta={self.eta}")
        if not 0 < self.m <= n:
            raise ValueError(f"mean batch size must lie in (0, n]: m={self.m}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1: {self.max_iters}")
        if self.sampler not in (SAMPLER_FULL, SAMPLER_BERNOULLI, SAMPLER_FIXED):
            raise ValueError(f"unknown sampler: {self.sampler!r}")


@dataclass
class IterationTrace:
    """Per-iteration metrics for one solver run.

    Row t describes the iterate after t updates; batch_size[t] is the number
    of samples used by update t (row 0 carries 0: no update produced w_0).
    """

    t: np.ndarray
    err_sq_range: np.ndarray
    loss: np.ndarray
    batch_size: np.ndarray
    status: str
    config: SolverConfig
    w_final: np.ndarray
    iterates: np.ndarray | None = None


@dataclass
class RateFit:
    """Result of a log-linear rate fit: per-iteration ratio and RMS residual."""

    rate: float
    residual: float
    status: str  # "ok" or "non-contracting"


@dataclass
class EnsembleResult:
    mean_curve: np.ndarray  # pointwise mean of projected squared error
    traces: list[IterationTrace]
    rel_se: np.ndarray  # relative standard error of the mean, sd / (mean sqrt(runs)); 0 for one run


_BLOCK = 256  # states stepped between two metrics calls


@np.errstate(over="ignore", invalid="ignore")  # overflow ends the run as diverged
def _drive(x, step, metrics, max_iters: int, stop_tol: float, keep_states: bool):
    """The iteration loop of every solver: x <- step(x) until stop_tol,
    divergence or max_iters.

    The recursion is sequential, so the loop steps one state at a time into
    a buffer of up to _BLOCK states and measures the whole buffer at once:
    metrics(states) takes a list of K states and returns their trace rows as
    columns, K values each, errors first.  The run converges once the error
    is at most stop_tol times the initial error (stop_tol > 0), and diverges
    once the error is not within DIVERGENCE_FACTOR of it (a NaN error
    included) or a row holds a non-finite value; such a row is not recorded,
    so the run ends at the last finite row.  Rows after the first stopping
    row of a block are dropped with their states, so the result is the one
    a state-by-state loop gives.  Returns (one array per column, status,
    final state, the recorded states or None).
    """
    cols = metrics([x])
    if not all(np.isfinite(c).all() for c in cols):
        raise ValueError("initial state has non-finite metrics")
    err0 = cols[0][0]
    blocks = [cols]
    states = [x] if keep_states else None
    status = STATUS_MAX_ITERS
    if stop_tol > 0 and err0 <= stop_tol * err0:
        status = STATUS_CONVERGED
    done = 0
    while status == STATUS_MAX_ITERS and done < max_iters:
        buf = []
        y = x
        for _ in range(min(_BLOCK, max_iters - done)):
            y = step(y)
            buf.append(y)
        done += len(buf)
        cols = metrics(buf)
        err = cols[0]
        finite = np.logical_and.reduce([np.isfinite(c) for c in cols])
        converged = (stop_tol > 0) & (err <= stop_tol * err0)
        diverged = ~(err <= DIVERGENCE_FACTOR * err0)
        stops = np.flatnonzero(~finite | converged | diverged)
        keep = len(buf)
        if len(stops):
            k = stops[0]
            keep = k + 1 if finite[k] else k
            status = STATUS_CONVERGED if finite[k] and converged[k] else STATUS_DIVERGED
        blocks.append([c[:keep] for c in cols])
        if keep:
            x = buf[keep - 1]
            if states is not None:
                states.extend(buf[:keep])
    return [np.concatenate(col) for col in zip(*blocks)], status, x, states


def _run(ds: Dataset, cfg: SolverConfig) -> IterationTrace:
    cfg.validate(ds.n)
    X, y = ds.X, ds.y
    n = ds.n
    ss = ds.spectral
    w = np.zeros(ds.d) if cfg.w0 is None else np.array(cfg.w0, dtype=float)
    if w.shape != (ds.d,):
        raise ValueError(f"w0 must have shape ({ds.d},)")
    rng = np.random.default_rng(cfg.seed)
    p = cfg.m / n
    k_fixed = max(1, int(round(cfg.m)))

    # a state is (w, residual X w - y, samples used by the update that made w)
    def step(state):
        w, r, _ = state
        if cfg.sampler == SAMPLER_FULL:
            grad = X.T @ r
            w = w - (cfg.eta / n) * grad
            batch = n
        elif cfg.sampler == SAMPLER_BERNOULLI:
            mask = (rng.random(n) < p).astype(float)
            batch = int(mask.sum())
            grad = X.T @ (mask * r)
            w = w - (cfg.eta / cfg.m) * grad
        else:  # fixed
            idx = rng.choice(n, size=k_fixed, replace=False)
            grad = X[idx].T @ r[idx]
            w = w - (cfg.eta / cfg.m) * grad
            batch = k_fixed
        return w, X @ w - y, batch

    def metrics(states):
        # K x 1 x width stacks: each product is the vector product of one
        # state alone (vector-matrix, then a 1 x 1 dot), bit for bit
        w, r, batch = (np.array(col) for col in zip(*states))
        comp = (w - ds.w_star)[:, None, :] @ ss.basis
        err = (comp @ comp.transpose(0, 2, 1))[:, 0, 0]
        loss = (r[:, None, :] @ r[:, :, None])[:, 0, 0] / n
        return err, loss, batch

    (errs, losses, batches), status, (w, _, _), states = _drive(
        (w, X @ w - y, 0), step, metrics, cfg.max_iters, cfg.stop_tol, cfg.record_iterates)
    return IterationTrace(
        t=np.arange(len(errs)),
        err_sq_range=errs,
        loss=losses,
        batch_size=batches,
        status=status,
        config=cfg,
        w_final=w,
        iterates=np.array([s[0] for s in states]) if states is not None else None,
    )


def run_gd(ds: Dataset, cfg: SolverConfig) -> IterationTrace:
    """Full gradient descent: w <- w - (eta/n) sum_i (x_i.w - y_i) x_i."""
    if cfg.sampler != SAMPLER_FULL:
        raise ValueError(f"run_gd requires sampler={SAMPLER_FULL!r}")
    return _run(ds, cfg)


def run_sgd(ds: Dataset, cfg: SolverConfig) -> IterationTrace:
    """Minibatch SGD, w <- w - (eta/m) sum_{i in batch} (x_i.w - y_i) x_i.

    bernoulli: each sample joins the batch independently with probability m/n,
    recovering run_gd bit-for-bit at m = n.  An empty draw leaves the iterate
    unchanged for that iteration (recorded with batch size 0).
    fixed: a uniformly random subset of exactly round(m) distinct samples.
    """
    if cfg.sampler not in (SAMPLER_BERNOULLI, SAMPLER_FIXED):
        raise ValueError(f"run_sgd requires sampler in ({SAMPLER_BERNOULLI!r}, {SAMPLER_FIXED!r})")
    return _run(ds, cfg)


def run_solver(ds: Dataset, cfg: SolverConfig) -> IterationTrace:
    return run_gd(ds, cfg) if cfg.sampler == SAMPLER_FULL else run_sgd(ds, cfg)


def derive_seed(master_seed: int, index: int) -> int:
    """Child seed for ensemble member `index`, mixed via SeedSequence."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_ensemble(ds: Dataset, cfg: SolverConfig, runs: int, seed: int) -> EnsembleResult:
    """Independent repeats with per-run seeds derived from (seed, run index).

    The mean curve is the pointwise average of the projected squared error,
    truncated to the shortest trace when early stopping makes lengths differ;
    rel_se is its relative standard error (sample standard deviation), NaN
    where the mean is zero.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1: {runs}")
    traces = []
    for k in range(runs):
        run_cfg = replace(cfg, seed=derive_seed(seed, k))
        traces.append(run_solver(ds, run_cfg))
    length = min(len(tr.err_sq_range) for tr in traces)
    stack = np.stack([tr.err_sq_range[:length] for tr in traces])
    mean = stack.mean(axis=0)
    stack -= mean  # deviations in place: one more runs x length array would show in peak memory
    sd = np.sqrt(np.einsum("ij,ij->j", stack, stack) / max(runs - 1, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_se = sd / (mean * math.sqrt(runs))
    return EnsembleResult(mean_curve=mean, traces=traces, rel_se=rel_se)


def default_fit_window(curve, start: int = 5, floor_rel: float = 1e-12,
                       stop: int | None = None) -> tuple[int, int]:
    """Fit window for rate estimation: skip the transient, stop pre-underflow.

    Returns (start, end) with end at the first point below floor_rel times
    the initial value (eigen-mixture transients and the floating-point floor
    both bias slope fits).
    """
    c = np.asarray(curve, dtype=float)
    if len(c) == 0 or c[0] <= 0:
        raise ValueError("curve must start positive")
    floor = floor_rel * c[0]
    below = np.nonzero(c < floor)[0]
    end = int(below[0]) if len(below) else len(c)
    if stop is not None:
        end = min(end, stop)
    start = min(start, max(end - 3, 0))
    return start, end


def estimate_rate(curve, window: tuple[int, int] | None = None) -> RateFit:
    """Least-squares line fit to log(curve) over [start, end).

    Returns exp(slope) as the per-iteration ratio and the RMS residual of the
    fit.  Applied to squared-error curves the ratio estimates the squared
    contraction; on norm curves it estimates the norm rate.
    """
    c = np.asarray(curve, dtype=float)
    start, end = window if window is not None else (0, len(c))
    seg = c[start:end]
    if len(seg) < 3:
        raise ValueError(f"fit window must contain at least 3 points, got {len(seg)}")
    if np.any(seg <= 0):
        raise ValueError("nonpositive values in fit window; shrink it to the pre-underflow region")
    t = np.arange(start, end, dtype=float)
    logs = np.log(seg)
    slope, intercept = np.polyfit(t, logs, 1)
    fitted = slope * t + intercept
    residual = float(np.sqrt(np.mean((logs - fitted) ** 2)))
    # slope at the rounding floor means a flat curve, not contraction
    status = "ok" if slope < -1e-12 else "non-contracting"
    return RateFit(rate=float(np.exp(slope)), residual=residual, status=status)
