"""Distributed gradient descent with a graph-Laplacian consensus penalty.

Each of n nodes holds exactly one sample and a private parameter vector and
talks only to its graph neighbors.  A synchronous round applies, from the
previous iterate,

    w_i <- w_i - eta (x_i . w_i - y_i) x_i - eta mu sum_j L_ij w_j

with L = D - A the (positive semidefinite) graph Laplacian: gradient descent
with step eta on half of sum_i (x_i . w_i - y_i)^2 + mu sum_<i,j> |w_i - w_j|^2,
the penalized loss the trace records.  Every function here takes that penalty
weight mu and forms the coupling eta * mu itself.  Near an exact fit the error
obeys delta W <- (I - Q) delta W with Q = eta blockdiag(x_i x_i^T) + eta mu (L kron I),
so stability and rates are read off Q's spectrum.

Each (eta, mu) point is an independent linear recursion, so run_dgd advances
its points as one stack of states through the solvers' loop: dgd_step takes
the stack a round at a time with each state's own eta and mu, and
consensus_metrics measures a block of stacked states at once, computing the
products the trace needs (B W, the residuals, the Gram matrix of the spread)
once per block.  Each point's trace is bitwise the one it gets alone.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .io import dumps
from .problem import Dataset, row_inner
from .solvers import _drive

DENSE_GUARD = 4096
ER_MAX_ATTEMPTS = 1000


class GraphConnectError(RuntimeError):
    """Random graph stayed disconnected for the whole retry budget."""


@dataclass(frozen=True)
class CommGraph:
    """Undirected connected communication topology (simple graph)."""

    n: int
    edges: tuple[tuple[int, int], ...]
    kind: str
    params: dict
    seed: int

    def max_degree(self) -> int:
        return int(np.bincount(np.array(self.edges, dtype=int).ravel(), minlength=self.n).max())


def is_connected(n: int, edges) -> bool:
    """Breadth-first search from node 0 reaches every node."""
    if n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == n


def _canon(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(min(i, j), max(i, j)) for i, j in edges if i != j}))


def make_graph(kind: str, n: int, seed: int = 0, *, rows: int | None = None,
               cols: int | None = None, k: int | None = None,
               p: float | None = None) -> CommGraph:
    """Build a connected simple graph.

    kinds: complete, ring, path, grid (rows x cols = n), k_ring (each node
    linked to its k nearest neighbors per side, 2k < n), erdos_renyi (each
    pair kept with probability p, resampled until connected).  Deterministic
    given seed.
    """
    if n < 2:
        raise ValueError(f"invalid graph spec: need n >= 2, got {n}")
    params: dict = {}
    if kind == "complete":
        edges = _canon(combinations(range(n), 2))
    elif kind == "ring":
        edges = _canon((i, (i + 1) % n) for i in range(n))
    elif kind == "path":
        edges = _canon((i, i + 1) for i in range(n - 1))
    elif kind == "grid":
        if rows is None or cols is None or rows * cols != n:
            raise ValueError(f"invalid graph spec: grid needs rows*cols == n, got {rows}x{cols} for n={n}")
        params = {"rows": rows, "cols": cols}
        edges = []
        for r in range(rows):
            for c in range(cols):
                idx = r * cols + c
                if c + 1 < cols:
                    edges.append((idx, idx + 1))
                if r + 1 < rows:
                    edges.append((idx, idx + cols))
        edges = _canon(edges)
    elif kind == "k_ring":
        if k is None or k < 1 or 2 * k >= n:
            raise ValueError(f"invalid graph spec: k_ring needs 1 <= k with 2k < n, got k={k}, n={n}")
        params = {"k": k}
        edges = _canon((i, (i + j) % n) for i in range(n) for j in range(1, k + 1))
    elif kind == "erdos_renyi":
        if p is None or not 0 < p <= 1:
            raise ValueError(f"invalid graph spec: erdos_renyi needs 0 < p <= 1, got {p}")
        rng = np.random.default_rng(seed)
        pairs = list(combinations(range(n), 2))
        for attempt in range(1, ER_MAX_ATTEMPTS + 1):
            draws = rng.random(len(pairs))
            edges = _canon(pair for pair, u in zip(pairs, draws) if u < p)
            if is_connected(n, edges):
                params = {"p": p, "attempts": attempt}
                break
        else:
            raise GraphConnectError(
                f"no connected graph in {ER_MAX_ATTEMPTS} attempts (n={n}, p={p}); try a larger p"
            )
    else:
        raise ValueError(f"invalid graph spec: unknown kind {kind!r}")
    if not is_connected(n, edges):
        raise ValueError(f"invalid graph spec: {kind} on n={n} is not connected")
    return CommGraph(n=n, edges=edges, kind=kind, params=params, seed=seed)


def incidence(g: CommGraph) -> np.ndarray:
    """Signed edge-node incidence B (E x n); B^T B is the Laplacian L, exactly.

    The penalty is applied as B^T (B W), which is exactly zero on consensus
    states instead of accumulating rounding from degree-weighted sums.
    """
    B = np.zeros((len(g.edges), g.n))
    for e, (i, j) in enumerate(g.edges):
        B[e, i] = 1.0
        B[e, j] = -1.0
    return B


def _global_spread(S: np.ndarray) -> np.ndarray:
    # center rows first: the spread is translation-invariant, and removing the
    # common offset keeps the Gram cancellation at the spread's own scale
    Sc = S - S.mean(axis=1, keepdims=True)
    sq = np.sum(Sc * Sc, axis=2)
    d2 = sq[:, :, None] + sq[:, None, :] - 2.0 * (Sc @ Sc.transpose(0, 2, 1))
    return np.sqrt(np.maximum(d2.max(axis=(1, 2)), 0.0))


def consensus_metrics(S: np.ndarray, ds: Dataset, B: np.ndarray, mu):
    """The trace columns of a stack S of K states (K x n x d; one n x d state
    is the K = 1 case), K values each: mean range-projected error, max
    edge/global parameter spread, and the penalized loss at penalty weight mu
    (one value, or K: each state's own).

    B is the graph's incidence matrix, built once per run by the caller.
    Each state's values are bitwise those of the same state evaluated alone:
    the stacked products run the same kernel per state, and every dot
    product is a 1 x 1 matmul.
    """
    S = np.asarray(S, dtype=float)
    if S.shape[-2:] != (ds.n, ds.d) or S.ndim not in (2, 3) or B.shape[1] != ds.n:
        raise ValueError("state, dataset and graph dimensions are inconsistent")
    S = S.reshape(-1, ds.n, ds.d)
    comp = ds.spectral.coords(S - ds.w_star)
    node_err = np.sum(comp * comp, axis=2)
    diffs = B @ S
    resid = row_inner(ds.X, S) - ds.y
    residual_sq = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
    return (node_err.mean(axis=1),
            np.linalg.norm(diffs, axis=2).max(axis=1, initial=0.0),
            _global_spread(S),
            residual_sq + mu * np.sum(diffs * diffs, axis=(1, 2)))


@dataclass
class DgdTrace:
    """Per-round metrics of one distributed run (row t = state after t rounds)."""

    t: np.ndarray
    mean_err_sq_range: np.ndarray
    edge_spread: np.ndarray
    global_spread: np.ndarray
    penalized_loss: np.ndarray  # the module docstring's loss at the run's mu
    status: str
    W_final: np.ndarray
    states: np.ndarray | None = None


def _coupling(eta: float, mu: float) -> float:
    """The round's coupling eta * mu, once eta, mu and the product are checked."""
    coupling = eta * mu
    if not (0 < eta < math.inf and 0 < mu < math.inf and 0 < coupling < math.inf):
        raise ValueError(f"eta, mu and eta * mu must be positive and finite: eta={eta}, mu={mu}")
    return coupling


def dgd_step(ds: Dataset, B: np.ndarray, eta, mu, W: np.ndarray) -> np.ndarray:
    """One synchronous round of W (n x d), or of each state k of a stack W
    (S x n x d) at its own eta[k] and mu[k]; nodes read only the previous iterate."""
    eta, coupling = (np.asarray(a)[..., None, None] for a in (eta, np.multiply(eta, mu)))
    e = row_inner(ds.X, W) - ds.y
    return W - eta * e[..., None] * ds.X - coupling * (B.T @ (B @ W))


def run_dgd(ds: Dataset, g: CommGraph, etas, mus, max_iters: int = 1000,
            stop_tol: float = 0.0, W0: np.ndarray | None = None,
            record_states: bool = False) -> list[DgdTrace]:
    """Synchronous distributed GD rounds from W0, one run per point (etas[k],
    mus[k]), each until stop_tol, divergence, or max_iters; one trace per point.

    The points advance as one stack, each trace bitwise the one its point
    gets alone.  stop_tol is relative to the initial mean projected error;
    zero runs the full max_iters.  Divergence (error above 1e12 times
    initial, or a non-finite metric) is recorded as a status, not raised.
    The trace rows are measured a block of states at a time; a point that
    stops inside a block takes up to one block minus one extra rounds, whose
    states are dropped.
    """
    if ds.n != g.n:
        raise ValueError(f"one sample per node required: dataset n={ds.n}, graph n={g.n}")
    if len(etas) != len(mus) or not len(etas):
        raise ValueError(f"need one eta per mu, and a point: {len(etas)} etas, {len(mus)} mus")
    for eta, mu in zip(etas, mus):
        _coupling(eta, mu)
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1: {max_iters}")
    W = np.zeros((ds.n, ds.d)) if W0 is None else np.array(W0, dtype=float)
    if W.shape != (ds.n, ds.d):
        raise ValueError(f"W0 must have shape ({ds.n}, {ds.d})")
    B = incidence(g)

    # the loop's state is (W, eta, mu), one row per running point
    def metrics(states):
        S, _, mu = states[0] if len(states) == 1 else map(np.concatenate, zip(*states))
        return consensus_metrics(S, ds, B, mu)

    def step(state, _):
        W, eta, mu = state
        return dgd_step(ds, B, eta, mu, W), eta, mu

    x0 = (np.tile(W, (len(etas), 1, 1)), np.array(etas, dtype=float), np.array(mus, dtype=float))
    cols, lengths, statuses, finals, kept = _drive(
        x0, step, metrics, max_iters, stop_tol, record_states)
    # consensus_metrics's four columns come in DgdTrace's field order
    return [DgdTrace(np.arange(L), *(col[k, :L] for col in cols), statuses[k], finals[k],
                     kept[k, :L] if kept is not None else None)
            for k, L in enumerate(lengths.tolist())]


@dataclass(frozen=True)
class OperatorSpectrum:
    """Spectrum of Q = eta blockdiag(x_i x_i^T) + eta mu (L kron I) off its exact null space.

    The exact null space is consensus states whose common component lies in
    null(H); sigma_min/sigma_max are taken off it.  rate_spectral, the
    spectral radius of I - Q there, is max(1 - sigma_min, sigma_max - 1) of
    the reported extremes, and `stable` requires sigma_max < 2.
    """

    sigma_min: float
    sigma_max: float
    rate_spectral: float
    stable: bool


def dgd_operator_spectrum(ds: Dataset, g: CommGraph, eta: float, mu: float) -> OperatorSpectrum:
    """Dense eigensolve of the nd x nd round operator (guarded at nd <= 4096).

    As the coupling eta * mu vanishes, consensus modes carrying per-node null
    components approach eigenvalue zero: a sigma_min below 1e-11 sigma_max is
    reported as 0, signalling that a stronger penalty is required.
    """
    if ds.n != g.n:
        raise ValueError(f"one sample per node required: dataset n={ds.n}, graph n={g.n}")
    n, d = ds.n, ds.d
    if n * d > DENSE_GUARD:
        raise ValueError(f"too large for dense eigensolve: n*d = {n * d} > {DENSE_GUARD}")
    B = incidence(g)
    Q = _coupling(eta, mu) * np.kron(B.T @ B, np.eye(d))
    for i in range(n):
        Q[i * d:(i + 1) * d, i * d:(i + 1) * d] += eta * np.outer(ds.X[i], ds.X[i])
    evals = np.linalg.eigvalsh(Q)
    null_dim = d - ds.spectral.rank
    sigma_max = float(evals[-1])
    sigma_min = float(evals[null_dim])
    if sigma_min < 1e-11 * max(sigma_max, 1.0):
        sigma_min = 0.0
    return OperatorSpectrum(
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        rate_spectral=max(1.0 - sigma_min, sigma_max - 1.0),
        stable=sigma_max < 2.0,
    )


def stability_bound(ds: Dataset, g: CommGraph, eta: float, mu: float) -> tuple[float, bool]:
    """Gershgorin-style bound on sigma_max: eta max_i |x_i|^2 + 2 eta mu max_degree.

    Conservative (bound >= true sigma_max); the flag is bound < 2.
    """
    bound = eta * float(ds.row_norms_sq().max()) + 2.0 * _coupling(eta, mu) * g.max_degree()
    return bound, bound < 2.0


def stable_eta(ds: Dataset, g: CommGraph, mu: float) -> float:
    """Step size whose Gershgorin bound is 1 (up to rounding) or less for penalty weight mu.

    This is the experiment-layer default: eta shrinks as the penalty grows,
    so any positive penalty weight yields a stable round.
    """
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite: mu={mu}")
    xmax = float(ds.row_norms_sq().max())
    return min(0.5 / xmax, 1.0 / (xmax + 2.0 * mu * g.max_degree()))


def graph_to_json(g: CommGraph) -> str:
    return dumps({
        "n": g.n,
        "kind": g.kind,
        "params": g.params,
        "seed": g.seed,
        "edges": [list(e) for e in g.edges],
    })


def graph_from_json(text: str) -> CommGraph:
    doc = json.loads(text)
    return CommGraph(
        n=int(doc["n"]),
        edges=_canon((int(i), int(j)) for i, j in doc["edges"]),
        kind=str(doc["kind"]),
        params=dict(doc["params"]),
        seed=int(doc["seed"]),
    )


def load_graph(path: str) -> CommGraph:
    with open(path) as fh:
        return graph_from_json(fh.read())
