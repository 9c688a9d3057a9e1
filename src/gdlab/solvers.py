"""Sequential solvers: Bernoulli/fixed minibatch SGD, and full gradient
descent as the Bernoulli step at m = n, where every sample is drawn.

Every iteration draws a sample mask, each sample in it with probability
m/n (bernoulli) or a uniform subset of round(m) samples (fixed), and takes
the one step w <- w - (eta/m) sum_i mask_i (x_i.w - y_i) x_i; the samplers
differ only in the draw.  Updates are matrix-free and touch only
(x_i, y_i); the planted parameter is used for diagnostics alone.  Each
trace records, per iteration, the squared error projected onto range(H),
the quadratic loss, and the realized batch size, then the run's status,
seed and final iterate; no other iterate is kept.  Runs are
bit-reproducible from (dataset, config).

Every solver, the distributed one included, runs through one loop (_drive)
that steps a stack of runs and computes the trace rows of a block of states
with one metrics call, so a row costs a few large numpy calls rather than
many small ones.  An ensemble, like distributed GD's (eta, mu) points, runs
as one stack: its runs advance together as a runs x d array of iterates,
each run leaving the stack at its own stop.  Run k still draws its masks
from its own Generator(derive_seed(seed, k)) in the order a single run
draws, and every product is a stack of per-run vector products, so each
run's trace is bitwise the one it gets alone and the seed-to-trace map is
unchanged; run_gd and run_sgd are the one-run case.

The loop keeps its states in two buffers and broadcasts the run's one
initial state into the first buffer's rows, one per member, so no stack of
copies of it is built.  An SGD step allocates only its sample mask: it forms
the masked residual and the gradient in the rows it then writes.  The trace
metrics take at most _BLOCK (128) runs per product, so an ensemble's
initial states, one per run, are measured without run-sized temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .problem import Dataset

DIVERGENCE_FACTOR = 1e12
_FIT_START = 5
_FIT_FLOOR_REL = 1e-12
_FIT_MAX_REL_SE = 0.05

SAMPLER_BERNOULLI = "bernoulli"
SAMPLER_FIXED = "fixed"

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max-iters"
STATUS_DIVERGED = "diverged"
_STATUSES = (STATUS_DIVERGED, STATUS_MAX_ITERS, STATUS_CONVERGED)  # worst first


def check_stopping(max_iters: int, stop_tol: float) -> None:
    """Refuse a run length or stopping tolerance the loop cannot take:
    max_iters >= 1, stop_tol finite and >= 0."""
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1: {max_iters}")
    if not 0 <= stop_tol < math.inf:
        raise ValueError(f"stop_tol must be finite and >= 0: {stop_tol}")


def _check_eta_m(eta: float | None, m: float, n: int) -> None:
    """Refuse a learning rate or mean batch size no update can take: eta
    positive and finite when given, m in (0, n]."""
    if eta is not None and not 0 < eta < math.inf:
        raise ValueError(f"learning rate must be positive and finite: eta={eta}")
    if not 0 < m <= n:
        raise ValueError(f"mean batch size must lie in (0, n]: m={m}, n={n}")


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
    sampler: str = SAMPLER_BERNOULLI
    max_iters: int = 1000
    stop_tol: float = 0.0
    seed: int = 0
    w0: np.ndarray | None = None

    def validate(self, n: int) -> None:
        _check_eta_m(self.eta, self.m, n)
        check_stopping(self.max_iters, self.stop_tol)
        if self.sampler not in (SAMPLER_BERNOULLI, SAMPLER_FIXED):
            raise ValueError(f"unknown sampler: {self.sampler!r}")


@dataclass
class IterationTrace:
    """Per-iteration metrics for one solver run.

    Row t describes the iterate after t updates; batch_size[t] is the number
    of samples used by update t (row 0 carries 0: no update produced w_0).
    The iterates themselves are not kept: w_final is the last one.
    """

    t: np.ndarray
    err_sq_range: np.ndarray
    loss: np.ndarray
    batch_size: np.ndarray
    status: str
    seed: int  # the seed of the run's sample draws
    w_final: np.ndarray


@dataclass
class RateFit:
    """Result of a log-linear rate fit: per-iteration ratio, RMS residual and
    the window [start, end) fitted."""

    rate: float
    residual: float
    window: tuple[int, int]


@dataclass
class EnsembleResult:
    mean_curve: np.ndarray  # pointwise mean of projected squared error
    traces: list[IterationTrace]
    rel_se: np.ndarray  # relative standard error of the mean, sd / (mean sqrt(runs)); 0 for one run

    @property
    def status(self) -> str:
        """The worst of the runs' statuses: diverged, then max-iters, then converged."""
        return min((tr.status for tr in self.traces), key=_STATUSES.index)


_BLOCK = 128  # row-states (members x steps) between two metrics calls
_DRAW_BYTES = 1 << 20  # sample draws held ahead (members x iterations x packed draw)


def _take(x, sel):
    return tuple(a[sel] for a in x)


def _widen(a, cap, lengths):
    """a (members x rows) in a buffer of cap rows that holds only member k's
    first lengths[k] rows: the rest of a row is never written, so its pages
    are never touched, and a stopped member costs its recorded rows alone
    however far the buffer grows."""
    wide = np.empty((a.shape[0], cap), a.dtype)
    common = int(lengths.min())
    wide[:, :common] = a[:, :common]
    for k in np.flatnonzero(lengths > common).tolist():
        wide[k, common:lengths[k]] = a[k, common:lengths[k]]
    return wide


@np.errstate(over="ignore", invalid="ignore")  # overflow ends a run as diverged
def _drive(x, runs: int, step, metrics, max_iters: int, stop_tol: float):
    """The iteration loop of every solver: S = runs runs (members) started
    from the one state x and advanced together, each until its own stop_tol,
    divergence or max_iters.

    A state is a tuple of arrays whose first axis runs over the members that
    are still running (`members`, their indices in 0..S-1); its first array
    is the iterate.  The recursion is sequential, so the loop steps the A
    running members max(1, _BLOCK // A) times (once when more than _BLOCK
    run), each step(state, members, out) writing the A states after `state`
    into `out`, and measures the block at once: metrics(block, members)
    takes the block's states stacked round-major (row j A + a holds
    members[a] after j + 1 steps; `members` names each row's member) and
    returns their trace rows as columns of one value per row, errors first.
    The initial state is measured the same way.

    Steps allocate no state: it lives in two buffers per state array, each
    with the rows of the largest block, which blocks write in turn, since a
    block's entry state (the final state of a member its first row stops)
    must outlive the block.  x holds each state array of one member; it is
    broadcast into the first buffer's rows, one per member, so no member
    stack of it is built.

    A member converges once its error is at most stop_tol times its initial
    error (stop_tol > 0), and diverges once the error is not within
    DIVERGENCE_FACTOR of it (a NaN error included) or a row holds a
    non-finite value; such a row is not recorded, so the run ends at its last
    finite row.  A member adds no row after its first stopping row and takes
    no step after the block holding it, so each member's rows, status and
    final state are the ones it gets running alone.

    Returns (one S x L array per column, the S row counts, the S statuses,
    the S final iterates, each written where its member stops); member k's
    rows are row k of each array up to its row count.
    """
    final = np.empty((runs,) + x[0].shape, x[0].dtype)
    bufs = [tuple(np.empty((max(_BLOCK, runs),) + a.shape, a.dtype) for a in x)
            for _ in range(2)]
    for buf, a in zip(bufs[0], x):
        buf[:runs] = a
    x = tuple(buf[:runs] for buf in bufs[0])
    cols = [c[None] for c in metrics(x, np.arange(runs))]
    if not all(np.isfinite(c).all() for c in cols):
        raise ValueError("initial state has non-finite metrics")
    err0 = cols[0][0].copy()  # a column may be a view of the buffer the second block writes
    # room for a block's steps of one run; widened by doubling when a run
    # goes on, so an ensemble of short runs never copies its rows
    cap = min(max_iters, _BLOCK) + 1
    lengths = np.ones(runs, dtype=int)
    outs = [_widen(c.swapaxes(0, 1), cap, lengths) for c in cols]
    status = np.ones(runs, dtype=int)  # index into _STATUSES: max-iters until a stop
    if stop_tol > 0:
        status[err0 <= stop_tol * err0] = 2
    members = np.flatnonzero(status == 1)
    if len(members) < runs:
        final[status != 1] = x[0][status != 1]
        x = _take(x, members)
    done, side, viewed = 0, 0, 0
    while len(members) and done < max_iters:
        A = len(members)
        c = min(max(1, _BLOCK // A), max_iters - done)
        if A != viewed:  # each buffer's rows for the steps of a stack of A
            views = [[tuple(buf[j * A:(j + 1) * A] for buf in bufs[i])
                      for j in range(max(1, _BLOCK // A))] for i in (0, 1)]
            viewed = A
        side = 1 - side
        past = [x, *views[side][:c]]  # past[r]: the state after r steps of this block
        for r in range(c):
            step(past[r], members, past[r + 1])
        block = tuple(buf[:c * A] for buf in bufs[side])
        cols = [np.reshape(col, (c, A)) for col in metrics(block, np.tile(members, c))]
        err, e0 = cols[0], err0[members]
        finite = np.logical_and.reduce([np.isfinite(col) for col in cols])
        converged = (stop_tol > 0) & (err <= stop_tol * e0)
        stops = ~finite | converged | ~(err <= DIVERGENCE_FACTOR * e0)
        hit = stops.any(axis=0)
        row = stops.argmax(axis=0)
        a = np.arange(A)
        ok = finite[row, a]
        keep = np.where(hit, row + ok, c)  # rows of this block each member keeps
        status[members[hit]] = np.where(ok & converged[row, a], 2, 0)[hit]
        if done + 1 + c > cap:
            cap = min(max_iters + 1, max(done + 1 + c, 2 * cap))
            for i in range(len(outs)):  # a column at a time: one old buffer beside its copy
                outs[i] = _widen(outs[i], cap, lengths)
        # rows past a member's stop fill only its unused tail
        for out, col in zip(outs, cols):
            out[members, done + 1:done + 1 + c] = col.swapaxes(0, 1)
        lengths[members] = done + 1 + keep
        done += c
        if hit.any():
            for a in np.flatnonzero(hit).tolist():
                final[members[a]] = past[keep[a]][0][a]
            members, x = members[~hit], _take(past[c], ~hit)
        else:
            x = past[c]
    final[members] = x[0]
    length = lengths.max()
    return [o[:, :length] for o in outs], lengths, [_STATUSES[s] for s in status], final


def _run(ds: Dataset, cfg: SolverConfig,
         seeds: list[int]) -> tuple[list[IterationTrace], np.ndarray]:
    """One run per seed, all advanced together as one stack of iterates.

    Every iteration of member k draws a sample mask from its own
    Generator(seeds[k]) in the order a run alone draws, the running members
    holding at most _DRAW_BYTES of packed masks ahead (a member's generator
    lives only while it has draws to come), and every product is a stack of
    per-member vector-matrix products; so member k's trace is bitwise the
    one a single run with seed seeds[k] gives.  Returns the traces (rows,
    status, seed and final iterate; no other iterate is kept) and the runs x L
    error stack their err_sq_range rows are views of.
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
    width = (n + 7) // 8  # a sample mask, 8 samples a byte

    def draw(rng, c):
        # the next c iterations' sample masks of one run, packed: the doubles
        # of c rng.random(n) (bernoulli), or the k_fixed samples with the
        # smallest of each draw's n keys, a uniform k_fixed-subset (fixed)
        if cfg.sampler == SAMPLER_BERNOULLI:
            return np.packbits(rng.random((c, n)) < p, axis=1)
        mask = np.zeros((c, n), dtype=bool)
        keys = rng.random((c, n))
        np.put_along_axis(mask, np.argpartition(keys, k_fixed - 1, axis=1)[:, :k_fixed], True,
                          axis=1)
        return np.packbits(mask, axis=1)

    rngs = {}  # the generators of runs with draws still to come
    # draws held (one row per member running at the refill), the members
    # they are for, rows of them used, iterations drawn for
    ahead, drawn, used, handed = None, None, 0, 0

    def next_draws(members):
        # the running members' sample masks for the next iteration, refilled
        # a chunk of iterations ahead; a stopped member's unused draws are
        # dropped
        nonlocal ahead, drawn, used, handed
        if ahead is None or used == ahead.shape[1]:
            c = max(1, min(_DRAW_BYTES // (len(members) * width), cfg.max_iters - handed))
            ahead, drawn, used = np.empty((len(members), c, width), np.uint8), members, 0
            for i, k in enumerate(members):
                rng = rngs.pop(k, None) or np.random.default_rng(seeds[k])
                ahead[i] = draw(rng, c)
                if handed + c < cfg.max_iters:
                    rngs[k] = rng
        handed, used = handed + 1, used + 1
        # members only ever shrinks, in order, so it is a sorted subset of drawn
        rows = ahead[np.searchsorted(drawn, members), used - 1]
        return np.unpackbits(rows, axis=1, count=n).view(bool)

    # a state is (w, residual X w - y, samples used by the update that made
    # w), one row per running member
    def step(state, members, out):
        # the masked residual and the gradient are formed in the rows of r1
        # and w1 that the step then writes, so only the mask is allocated
        w, r, _ = state
        w1, r1, batch = out
        mask = next_draws(members)
        np.multiply(mask, r, out=r1)
        np.matmul(r1[:, None, :], X, out=w1[:, None, :])
        w1 *= cfg.eta / cfg.m
        np.subtract(w, w1, out=w1)
        np.matmul(w1[:, None, :], X.T, out=r1[:, None, :])
        r1 -= y
        mask.sum(axis=1, out=batch)

    def metrics(block, _):
        # stacks of 1 x width products: each value is the vector product of
        # one member's state alone (vector-matrix, then a 1 x 1 dot), bit for
        # bit, taken _BLOCK rows at a time so the initial state of a large
        # ensemble needs no ensemble-sized temporaries
        w, r, batch = block
        err, loss = np.empty(len(w)), np.empty(len(w))
        for i in range(0, len(w), _BLOCK):
            rows = slice(i, i + _BLOCK)
            comp = (w[rows] - ds.w_star)[:, None, :] @ ss.basis
            err[rows] = (comp @ comp.transpose(0, 2, 1))[:, 0, 0]
            loss[rows] = (r[rows, None, :] @ r[rows, :, None])[:, 0, 0]
        loss /= n
        return err, loss, batch

    (errs, losses, batches), lengths, statuses, finals = _drive(
        (w, (w[None, :] @ X.T)[0] - y, np.array(0)), runs, step, metrics,
        cfg.max_iters, cfg.stop_tol)
    t = np.arange(errs.shape[1])
    traces = [
        IterationTrace(
            t=t[:L],
            err_sq_range=errs[k, :L],
            loss=losses[k, :L],
            batch_size=batches[k, :L],
            status=statuses[k],
            seed=seeds[k],
            w_final=finals[k],
        )
        for k, L in enumerate(lengths.tolist())
    ]
    return traces, errs


def run_gd(ds: Dataset, cfg: SolverConfig) -> IterationTrace:
    """Full gradient descent, w <- w - (eta/n) sum_i (x_i.w - y_i) x_i: the
    Bernoulli step at m = n, taken once cfg is validated as given, m included."""
    if cfg.sampler != SAMPLER_BERNOULLI:
        raise ValueError(f"run_gd requires sampler={SAMPLER_BERNOULLI!r}")
    cfg.validate(ds.n)
    return _run(ds, replace(cfg, m=float(ds.n)), [cfg.seed])[0][0]


def run_sgd(ds: Dataset, cfg: SolverConfig) -> IterationTrace:
    """Minibatch SGD, w <- w - (eta/m) sum_{i in batch} (x_i.w - y_i) x_i.

    bernoulli: each sample joins the batch independently with probability m/n,
    recovering run_gd bit-for-bit at m = n.  An empty draw leaves the iterate
    unchanged for that iteration (recorded with batch size 0).
    fixed: a uniformly random subset of exactly round(m) distinct samples.
    """
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


def fit_rate(curve, tail: bool = False, rel_se=None) -> RateFit | None:
    """The rate fit of every check: a least-squares line fit to log(curve)
    over the window below, or None for a curve not starting positive or a
    window of fewer than 3 points.

    The window starts at _FIT_START, past the eigen-mixture transient, and
    ends at the first point below _FIT_FLOOR_REL times the initial value,
    before the floating-point floor, or, given an ensemble's rel_se (one per
    point), at the first above _FIT_MAX_REL_SE: past it the mean rests on the
    few runs still carrying error and follows their noise.  tail=True fits
    the later half, for deterministic distributed runs.  The rate is
    exp(slope), the per-iteration ratio: on squared-error curves the squared
    contraction, on norm curves the norm rate.
    """
    c = np.asarray(curve, dtype=float)
    if len(c) == 0 or not c[0] > 0:  # a NaN start cuts no window
        return None
    cut = c < _FIT_FLOOR_REL * c[0]
    if rel_se is not None:
        cut |= np.asarray(rel_se) > _FIT_MAX_REL_SE
    end = int(cut.argmax()) if cut.any() else len(c)
    start = max(end // 2, min(_FIT_START, end - 3)) if tail else min(_FIT_START, max(end - 3, 0))
    if end - start < 3:
        return None
    t = np.arange(start, end, dtype=float)
    logs = np.log(c[start:end])
    slope, intercept = np.polyfit(t, logs, 1)
    fitted = slope * t + intercept
    residual = float(np.sqrt(np.mean((logs - fitted) ** 2)))
    return RateFit(rate=float(np.exp(slope)), residual=residual, window=(start, end))
