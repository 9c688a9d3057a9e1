"""Sequential solvers: full gradient descent and Bernoulli/fixed minibatch SGD.

Updates are matrix-free and touch only (x_i, y_i); the planted parameter is
used for diagnostics alone.  Each trace records, per iteration, the squared
error projected onto range(H), the quadratic loss, and the realized batch
size.  Runs are bit-reproducible from (dataset, config).

Every solver, the distributed one included, runs through one loop (_drive)
that steps one state at a time and computes the trace rows of a block of
states with one metrics call, so a row costs a few large numpy calls rather
than many small ones.  An ensemble runs as one stack: its runs advance
together as a runs x d array of iterates, each run leaving the stack at its
own stop.  Run k still draws from its own Generator(derive_seed(seed, k)) in
the order a single run draws, and every product is a stack of per-run
vector products, so each run's trace is bitwise the one it gets alone and
the seed-to-trace map is unchanged; run_gd and run_sgd are the one-run case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .problem import Dataset

DIVERGENCE_FACTOR = 1e12
_FIT_START = 5
_FIT_FLOOR_REL = 1e-12

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
        if not 0 < self.eta < math.inf:
            raise ValueError(f"learning rate must be positive and finite: eta={self.eta}")
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


@dataclass
class EnsembleResult:
    mean_curve: np.ndarray  # pointwise mean of projected squared error
    traces: list[IterationTrace]
    rel_se: np.ndarray  # relative standard error of the mean, sd / (mean sqrt(runs)); 0 for one run


_BLOCK = 256  # row-states (members x steps) between two metrics calls
_DRAW_BYTES = 1 << 20  # sample draws held ahead (members x iterations x packed draw)
_STATUSES = (STATUS_MAX_ITERS, STATUS_CONVERGED, STATUS_DIVERGED)


def _take(x, sel):
    return tuple(a[sel] for a in x)


def _widen(a, cap):
    """a (members x rows x ...) copied into a buffer of cap rows."""
    wide = np.empty((a.shape[0], cap) + a.shape[2:], a.dtype)
    wide[:, :a.shape[1]] = a
    return wide


@np.errstate(over="ignore", invalid="ignore")  # overflow ends a run as diverged
def _drive(x, step, metrics, max_iters: int, stop_tol: float, keep_states: bool):
    """The iteration loop of every solver: S runs (members) advanced together,
    x <- step(x, members), each until its own stop_tol, divergence or
    max_iters.

    A state is a tuple of arrays whose first axis runs over the members that
    are still running (`members`, their indices in 0..S-1); its first array
    is the iterate.  The recursion is sequential, so the loop steps the A
    running members max(1, _BLOCK // A) times into a buffer of up to _BLOCK
    row-states (one state of every running member per step; one step when
    more than _BLOCK members run) and measures the whole buffer at once:
    metrics(states) takes a list of K states and returns their trace rows as
    columns of K x A values (A running members), errors first.

    A member converges once its error is at most stop_tol times its initial
    error (stop_tol > 0), and diverges once the error is not within
    DIVERGENCE_FACTOR of it (a NaN error included) or a row holds a
    non-finite value; such a row is not recorded, so the run ends at its last
    finite row.  A member adds no row after its first stopping row and takes
    no step after the block holding it, so each member's rows, status and
    final state are the ones it gets running alone.

    Returns (one S x L array per column, the S row counts, the S statuses,
    the S final iterates, the recorded iterates S x L x ... or None); member
    k's rows are row k of each array up to its row count.
    """
    cols = [np.reshape(c, (1, -1)) for c in metrics([x])]
    if not all(np.isfinite(c).all() for c in cols):
        raise ValueError("initial state has non-finite metrics")
    err0 = cols[0][0]
    runs = len(err0)
    # room for a block's steps of one run; widened by doubling when a run
    # goes on, so an ensemble of short runs never copies its rows
    cap = min(max_iters, _BLOCK) + 1
    outs = [_widen(c.T, cap) for c in cols]
    kept = _widen(x[0][:, None], cap) if keep_states else None
    lengths = np.ones(runs, dtype=int)
    status = np.zeros(runs, dtype=int)  # index into _STATUSES
    if stop_tol > 0:
        status[err0 <= stop_tol * err0] = 1
    members = np.flatnonzero(status == 0)
    ends = []  # (stopped members, their final iterates)
    if len(members) < runs:
        ends.append((np.flatnonzero(status), x[0][status != 0]))
        x = _take(x, members)
    done = 0
    while len(members) and done < max_iters:
        A = len(members)
        c = min(max(1, _BLOCK // A), max_iters - done)
        buf = []
        y = x
        for _ in range(c):
            y = step(y, members)
            buf.append(y)
        cols = [np.reshape(col, (c, A)) for col in metrics(buf)]
        err, e0 = cols[0], err0[members]
        finite = np.logical_and.reduce([np.isfinite(col) for col in cols])
        converged = (stop_tol > 0) & (err <= stop_tol * e0)
        stops = ~finite | converged | ~(err <= DIVERGENCE_FACTOR * e0)
        hit = stops.any(axis=0)
        row = stops.argmax(axis=0)
        a = np.arange(A)
        ok = finite[row, a]
        keep = np.where(hit, row + ok, c)  # rows of this block each member keeps
        status[members[hit]] = np.where(ok & converged[row, a], 1, 2)[hit]
        if done + 1 + c > cap:
            cap = min(max_iters + 1, max(done + 1 + c, 2 * cap))
            for i, o in enumerate(outs):
                outs[i] = _widen(o, cap)
            kept = _widen(kept, cap) if keep_states else None
        # rows past a member's stop fill only its unused tail
        for out, col in zip(outs, cols):
            out[members, done + 1:done + 1 + c] = col.T
        if keep_states:
            kept[members, done + 1:done + 1 + c] = np.stack([s[0] for s in buf], axis=1)
        lengths[members] = done + 1 + keep
        done += c
        if hit.any():
            past = [x] + buf  # past[r]: the state after r steps of this block
            for r in np.unique(keep[hit]):
                sel = hit & (keep == r)
                ends.append((members[sel], past[r][0][sel]))
            members, x = members[~hit], _take(buf[-1], ~hit)
        else:
            x = buf[-1]
    ends.append((members, x[0]))
    final = np.empty((runs,) + x[0].shape[1:], x[0].dtype)
    for stopped, w in ends:
        final[stopped] = w
    length = lengths.max()
    outs = [o[:, :length] for o in outs]
    if keep_states:
        kept = kept[:, :length]
    return outs, lengths, [_STATUSES[s] for s in status], final, kept


def _run(ds: Dataset, cfg: SolverConfig,
         seeds: list[int]) -> tuple[list[IterationTrace], np.ndarray]:
    """One run per seed, all advanced together as one stack of iterates.

    Member k draws from its own Generator(seeds[k]) in the order a run alone
    draws, the running members holding at most _DRAW_BYTES of draws ahead (a
    member's generator lives only while it has draws to come), and every
    product is a stack of per-member vector-matrix products; so member k's
    trace is bitwise the one a single run with seed seeds[k] gives.  Returns
    the traces and the runs x L error stack their err_sq_range rows are
    views of.
    """
    cfg.validate(ds.n)
    X, y = ds.X, ds.y
    n = ds.n
    ss = ds.spectral
    w = np.zeros(ds.d) if cfg.w0 is None else np.array(cfg.w0, dtype=float)
    if w.shape != (ds.d,):
        raise ValueError(f"w0 must have shape ({ds.d},)")
    runs = len(seeds)
    p = cfg.m / n
    k_fixed = max(1, int(round(cfg.m)))

    # draw(rng, c): the next c iterations' draws of one run as c rows;
    # unpack(rows): one row per run as the step uses it
    if cfg.sampler == SAMPLER_FIXED:
        width, dtype = k_fixed, np.intp

        def draw(rng, c):
            return [rng.choice(n, size=k_fixed, replace=False) for _ in range(c)]

        def unpack(rows):
            return rows
    else:  # Bernoulli masks, 8 samples a byte
        width, dtype = (n + 7) // 8, np.uint8

        def draw(rng, c):
            return np.packbits(rng.random((c, n)) < p, axis=1)  # the doubles of c rng.random(n)

        def unpack(rows):
            return np.unpackbits(rows, axis=1, count=n).view(bool)

    rngs = {}  # the generators of runs with draws still to come
    # draws held (one row per member running at the refill), the members
    # they are for, rows of them used, iterations drawn for
    ahead, drawn, used, handed = None, None, 0, 0

    def next_draws(members):
        # the running members' draws for the next iteration, refilled a chunk
        # of iterations ahead; a stopped member's unused draws are dropped
        nonlocal ahead, drawn, used, handed
        if ahead is None or used == ahead.shape[1]:
            c = _DRAW_BYTES // (len(members) * width * np.dtype(dtype).itemsize)
            c = max(1, min(c, cfg.max_iters - handed))
            ahead, drawn, used = np.empty((len(members), c, width), dtype), members, 0
            for i, k in enumerate(members):
                rng = rngs.pop(k, None) or np.random.default_rng(seeds[k])
                ahead[i] = draw(rng, c)
                if handed + c < cfg.max_iters:
                    rngs[k] = rng
        handed, used = handed + 1, used + 1
        # members only ever shrinks, in order, so it is a sorted subset of drawn
        return unpack(ahead[np.searchsorted(drawn, members), used - 1])

    # a state is (w, residual X w - y, samples used by the update that made
    # w), one row per running member
    def step(state, members):
        w, r, _ = state
        if cfg.sampler == SAMPLER_FULL:
            v, rows, scale = r, X, cfg.eta / n
            batch = np.full(len(members), n)
        elif cfg.sampler == SAMPLER_BERNOULLI:
            mask = next_draws(members)
            v, rows, scale = mask * r, X, cfg.eta / cfg.m
            batch = mask.sum(axis=1)
        else:  # fixed
            idx = next_draws(members)
            v, rows, scale = np.take_along_axis(r, idx, axis=1), X[idx], cfg.eta / cfg.m
            batch = np.full(len(members), k_fixed)
        grad = (v[:, None, :] @ rows)[:, 0, :]
        grad *= scale
        w = w - grad
        r = (w[:, None, :] @ X.T)[:, 0, :]
        r -= y
        return w, r, batch

    def metrics(states):
        # stacks of 1 x width products: each value is the vector product of
        # one member's state alone (vector-matrix, then a 1 x 1 dot), bit for
        # bit; a block of one step is measured in place, without a copy
        w, r, batch = states[0] if len(states) == 1 else map(np.concatenate, zip(*states))
        comp = (w - ds.w_star)[:, None, :] @ ss.basis
        err = (comp @ comp.transpose(0, 2, 1))[:, 0, 0]
        loss = (r[:, None, :] @ r[:, :, None])[:, 0, 0] / n
        return err, loss, batch

    W = np.tile(w, (runs, 1))
    x0 = (W, (W[:, None, :] @ X.T)[:, 0, :] - y, np.zeros(runs, dtype=int))
    (errs, losses, batches), lengths, statuses, finals, kept = _drive(
        x0, step, metrics, cfg.max_iters, cfg.stop_tol, cfg.record_iterates)
    t = np.arange(errs.shape[1])
    traces = [
        IterationTrace(
            t=t[:L],
            err_sq_range=errs[k, :L],
            loss=losses[k, :L],
            batch_size=batches[k, :L],
            status=statuses[k],
            config=replace(cfg, seed=seeds[k]),
            w_final=finals[k],
            iterates=kept[k, :L] if kept is not None else None,
        )
        for k, L in enumerate(lengths.tolist())
    ]
    return traces, errs


def run_gd(ds: Dataset, cfg: SolverConfig) -> IterationTrace:
    """Full gradient descent: w <- w - (eta/n) sum_i (x_i.w - y_i) x_i."""
    if cfg.sampler != SAMPLER_FULL:
        raise ValueError(f"run_gd requires sampler={SAMPLER_FULL!r}")
    return _run(ds, cfg, [cfg.seed])[0][0]


def run_sgd(ds: Dataset, cfg: SolverConfig) -> IterationTrace:
    """Minibatch SGD, w <- w - (eta/m) sum_{i in batch} (x_i.w - y_i) x_i.

    bernoulli: each sample joins the batch independently with probability m/n,
    recovering run_gd bit-for-bit at m = n.  An empty draw leaves the iterate
    unchanged for that iteration (recorded with batch size 0).
    fixed: a uniformly random subset of exactly round(m) distinct samples.
    """
    if cfg.sampler not in (SAMPLER_BERNOULLI, SAMPLER_FIXED):
        raise ValueError(f"run_sgd requires sampler in ({SAMPLER_BERNOULLI!r}, {SAMPLER_FIXED!r})")
    return _run(ds, cfg, [cfg.seed])[0][0]


def derive_seed(master_seed: int, index: int) -> int:
    """Child seed for ensemble member `index`, mixed via SeedSequence."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_ensemble(ds: Dataset, cfg: SolverConfig, runs: int) -> EnsembleResult:
    """Independent repeats with per-run seeds derived from (cfg.seed, run index).

    The mean curve is the pointwise average of the projected squared error,
    truncated to the shortest trace when early stopping makes lengths differ;
    rel_se is its relative standard error (sample standard deviation), NaN
    where the mean is zero.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1: {runs}")
    traces, errs = _run(ds, cfg, [derive_seed(cfg.seed, k) for k in range(runs)])
    length = min(len(tr.t) for tr in traces)
    stack = errs[:, :length]
    mean = stack.mean(axis=0)
    dev = stack - mean
    sd = np.sqrt(np.einsum("ij,ij->j", dev, dev) / max(runs - 1, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_se = sd / (mean * math.sqrt(runs))
    return EnsembleResult(mean_curve=mean, traces=traces, rel_se=rel_se)


def default_fit_window(curve, stop: int | None = None) -> tuple[int, int]:
    """Fit window for rate estimation: skip the transient, stop pre-underflow.

    Returns (start, end) with start at _FIT_START and end at the first point
    below _FIT_FLOOR_REL times the initial value (eigen-mixture transients
    and the floating-point floor both bias slope fits).
    """
    c = np.asarray(curve, dtype=float)
    if len(c) == 0 or c[0] <= 0:
        raise ValueError("curve must start positive")
    below = np.nonzero(c < _FIT_FLOOR_REL * c[0])[0]
    end = int(below[0]) if len(below) else len(c)
    if stop is not None:
        end = min(end, stop)
    return min(_FIT_START, max(end - 3, 0)), end


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
    return RateFit(rate=float(np.exp(slope)), residual=residual)
