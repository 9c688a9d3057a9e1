"""Test oracles: independent estimates the closed forms of gdlab are checked
against, the defining formulas of a DGD round and its trace row, and the
iterates of a run, which no trace keeps.  No command runs them, so they live
with the tests; pytest puts this directory on sys.path, so a test imports
them as `from oracles import mc_expected_mm`."""

from dataclasses import replace

import numpy as np

from gdlab.distributed import CommGraph, OperatorSpectrum, _coupling, incidence, run_dgd
from gdlab.problem import Dataset, SpectralSummary
from gdlab.solvers import SolverConfig, _check_eta_m

_MC_BYTES = 1 << 22  # bytes of one draw stack of a chunk (draws x d x d, or x n x d)


def mc_expected_mm(ds: Dataset, eta: float, m: float, samples: int,
                   seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of E[M^T M] with entrywise standard errors.

    Draws sample masks sigma_i ~ Bernoulli(m/n) i.i.d., forms
    M = I - (eta/m) sum_i sigma_i x_i x_i^T and averages M^T M.  Works for any
    dataset.  Deterministic given `seed`; draws come in chunks whose stacks
    of per-draw matrices hold at most about _MC_BYTES each, so memory does
    not grow with `samples`.  Entrywise sums are accumulated relative to the
    first draw, so a zero-variance case (m = n) reports exactly zero
    standard error.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    _check_eta_m(eta, m, ds.n)
    n, d = ds.n, ds.d
    p = m / n
    rng = np.random.default_rng(seed)
    eye = np.eye(d)
    shift = None
    s1 = np.zeros((d, d))
    s2 = np.zeros((d, d))
    chunk = max(1, _MC_BYTES // (8 * d * max(n, d)))
    done = 0
    while done < samples:
        c = min(chunk, samples - done)
        sigma = (rng.random((c, n)) < p).astype(float)
        scaled = sigma[:, :, None] * ds.X[None, :, :]
        T = np.einsum("ia,sib->sab", ds.X, scaled, optimize=True)
        M = eye[None, :, :] - (eta / m) * T
        MtM = np.matmul(np.transpose(M, (0, 2, 1)), M)
        if shift is None:
            shift = MtM[0].copy()
        dev = MtM - shift
        s1 += dev.sum(axis=0)
        s2 += (dev * dev).sum(axis=0)
        done += c
    mean = shift + s1 / samples
    var = np.clip((s2 - s1 * s1 / samples) / (samples - 1), 0.0, None)
    stderr = np.sqrt(var / samples)
    return mean, stderr


def range_split(ss: SpectralSummary, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v's orthogonal projection onto range(H), through ss.basis, and its null
    component v minus that projection."""
    inside = (v @ ss.basis) @ ss.basis.T
    return inside, v - inside


def dense_round_operator(ds: Dataset, g: CommGraph, eta: float, mu: float) -> np.ndarray:
    """The whole nd x nd DGD round operator Q = eta blockdiag(x_i x_i^T) +
    eta mu (L kron I), built densely: a round maps vec(W - w_star) by I - Q."""
    n, d = ds.n, ds.d
    B = incidence(g)
    Q = _coupling(eta, mu) * np.kron(B.T @ B, np.eye(d))
    for i in range(n):
        Q[i * d:(i + 1) * d, i * d:(i + 1) * d] += eta * np.outer(ds.X[i], ds.X[i])
    return Q


def dense_operator_spectrum(ds: Dataset, g: CommGraph, eta: float, mu: float) -> OperatorSpectrum:
    """gdlab.distributed.dgd_operator_spectrum from one dense eigensolve of
    dense_round_operator, its d - rank H least eigenvalues taken as the exact
    null space, and a sigma_min under n d eps sigma_max reported as 0."""
    n, d = ds.n, ds.d
    evals = np.linalg.eigvalsh(dense_round_operator(ds, g, eta, mu))
    sigma_max = float(evals[-1])
    sigma_min = float(evals[d - ds.spectral.rank])
    if sigma_min < n * d * np.finfo(float).eps * sigma_max:
        sigma_min = 0.0
    return OperatorSpectrum(
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        rate_spectral=max(1.0 - sigma_min, sigma_max - 1.0),
        stable=sigma_max < 2.0,
    )


def reference_round(ds: Dataset, B: np.ndarray, eta: float, mu: float, W: np.ndarray) -> np.ndarray:
    """One DGD round of one state W (n x d) as gdlab.distributed's docstring
    writes it, W - eta e x - eta mu B^T (B W) with e the per-node residuals.
    gdlab's round scales X and B^T by each point's eta and eta * mu first, so
    it agrees with this one to rounding, not bit for bit."""
    e = np.sum(ds.X * W, axis=1) - ds.y
    return W - eta * e[:, None] * ds.X - eta * mu * (B.T @ (B @ W))


def reference_metrics(ds: Dataset, B: np.ndarray, mu: float, W: np.ndarray) -> tuple:
    """A DGD trace row of one state W (n x d) by its definitions: the mean
    over nodes of the squared range-projected error, the largest edge
    difference norm, the largest pairwise distance (from the Gram matrix of
    the mean-centred rows) and the penalized loss at penalty weight mu."""
    comp = (W - ds.w_star) @ ds.spectral.basis
    diffs = B @ W
    Wc = W - W.mean(axis=0)
    sq = np.sum(Wc * Wc, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Wc @ Wc.T)
    resid = np.sum(ds.X * W, axis=1) - ds.y
    return (float(np.sum(comp * comp, axis=1).mean()),
            float(np.linalg.norm(diffs, axis=1).max()),
            float(np.sqrt(max(float(d2.max()), 0.0))),
            float(resid @ resid + mu * np.sum(diffs * diffs)))


def reference_dgd(ds: Dataset, g: CommGraph, eta: float, mu: float, W0: np.ndarray,
                  rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """rounds reference_rounds from W0: the rounds + 1 reference_metrics rows
    (rows x 4, in DgdTrace's column order) and the final state."""
    B = incidence(g)
    W = np.array(W0, dtype=float)
    rows = [reference_metrics(ds, B, mu, W)]
    for _ in range(rounds):
        W = reference_round(ds, B, eta, mu, W)
        rows.append(reference_metrics(ds, B, mu, W))
    return np.array(rows), W


def plain_gd(ds: Dataset, eta: float, iters: int):
    """Full gradient descent from zero, one iteration at a time and without
    sampling: w <- w - (eta/n) X^T (X w - y).  Each product is the one
    gdlab.solvers' step and metrics take on a stack of one run, so the rows
    are bitwise the solver's.  Returns the iters + 1 projected squared
    errors, the losses and the final iterate."""
    X, y, n = ds.X, ds.y, ds.n
    w = np.zeros((1, ds.d))
    r = (w[:, None, :] @ X.T)[:, 0, :] - y
    errs, losses = [], []
    for t in range(iters + 1):
        comp = (w - ds.w_star)[:, None, :] @ ds.spectral.basis
        errs.append((comp @ comp.transpose(0, 2, 1))[0, 0, 0])
        losses.append((r[:, None, :] @ r[:, :, None])[0, 0, 0] / n)
        if t < iters:
            w = w - (r[:, None, :] @ X)[:, 0, :] * (eta / n)
            r = (w[:, None, :] @ X.T)[:, 0, :] - y
    return np.array(errs), np.array(losses), w[0]


def plain_sgd(ds: Dataset, eta: float, m: float, sampler: str, iters: int, seed: int):
    """Minibatch SGD from zero, one run one iteration at a time, drawing as a
    lone run of gdlab.solvers draws from Generator(seed): rng.random(n) < m/n
    (bernoulli), or the k = max(1, round(m)) samples whose keys rng.random(n)
    sort first (fixed).  The gradient is summed sample by sample and the step
    is eta/m for both samplers.  Returns the iters + 1 projected squared errors, the losses
    and the batch sizes (0 in row 0)."""
    X, y, n = ds.X, ds.y, ds.n
    rng = np.random.default_rng(seed)
    w = np.zeros(ds.d)
    errs, losses, batches = [], [], [0]
    for t in range(iters + 1):
        comp = (w - ds.w_star) @ ds.spectral.basis
        r = X @ w - y
        errs.append(comp @ comp)
        losses.append(r @ r / n)
        if t == iters:
            break
        if sampler == "bernoulli":
            batch = np.flatnonzero(rng.random(n) < m / n)
        else:
            k = max(1, round(m))
            batch = np.argsort(rng.random(n))[:k]
        grad = np.zeros(ds.d)
        for i in batch:
            grad += (X[i] @ w - y[i]) * X[i]
        w = w - (eta / m) * grad
        batches.append(len(batch))
    return np.array(errs), np.array(losses), np.array(batches)


def prefix_iterates(run, ds: Dataset, cfg: SolverConfig, ts) -> np.ndarray:
    """Row t of run(ds, cfg)'s iterates for each t in ts (run_gd or run_sgd):
    the start at t = 0, else the final iterate of a t-step run.  A run's
    draws depend on its seed, not on max_iters, so a t-step run is the first
    t steps of any longer run with the same inputs (test_solvers.py's
    TestPrefixProperty); that holds for rows before a stop.  Costs
    sum(ts) steps."""
    start = np.zeros(ds.d) if cfg.w0 is None else np.asarray(cfg.w0, dtype=float)
    return np.array([run(ds, replace(cfg, max_iters=t)).w_final if t else start for t in ts])


def prefix_states(ds: Dataset, g: CommGraph, eta: float, mu: float, W0: np.ndarray,
                  ts) -> np.ndarray:
    """prefix_iterates for run_dgd's one point (eta, mu) from W0: row t of
    its states, the final state of a t-round run."""
    return np.array([run_dgd(ds, g, [eta], [mu], max_iters=t, W0=W0)[0].W_final if t else W0
                     for t in ts])
