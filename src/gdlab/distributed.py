"""Distributed gradient descent with a graph-Laplacian consensus penalty.

Each of n nodes holds exactly one sample and a private parameter vector and
talks only to its graph neighbors.  A synchronous round applies, from the
previous iterate,

    w_i <- w_i - eta (x_i . w_i - y_i) x_i - eta mu sum_j L_ij w_j

with L = D - A the (positive semidefinite) graph Laplacian: gradient descent
with step eta on half of sum_i (x_i . w_i - y_i)^2 + mu sum_<i,j> |w_i - w_j|^2,
the penalized loss the trace records.  Every public function here takes that
penalty weight mu and forms the coupling eta * mu itself, but for dgd_step,
the round inside run_dgd, which takes each point's eta X and eta mu B^T as
run_dgd scales them.  Near an exact fit the error obeys
delta W <- (I - Q) delta W with Q = eta blockdiag(x_i x_i^T) +
eta mu (L kron I), so stability and rates are read off Q's spectrum.  Every
x_i lies in range(H), so Q splits exactly into a block on range(H), an
(n rank H) x (n rank H) matrix that dgd_operator_spectrum solves densely, and
a null block eta mu (L kron I_(d - rank H)), whose eigenvalues are those of
L scaled.

Each (eta, mu) point is an independent linear recursion, so run_dgd advances
its points as one stack of states through the solvers' loop: dgd_step takes
the stack a round at a time, each state at its own eta and mu, and
consensus_metrics measures a block of stacked states at once.  A trace keeps
the rows, the status and the final state, no other state, and each point's
is bitwise the one it gets alone.

Each product of a state is formed once.  The loop state is each running
point's W, its residuals e = row_inner(X, W) - y and its edge differences
B W; the point's operands eta X and eta mu B^T are scaled once per run, and
taken again for the running points when the stack shrinks.  A round
steps with e and B W, W - e (eta X) - (eta mu B^T)(B W), and writes the new
state with its own e and B W; the trace's error, spreads and loss read those
same products, so no residual or B W is computed twice.  The residual keeps
row_inner's reduction, with which labels are made, so an exact fit has
bitwise-zero residuals, and the penalty stays B^T (B W), exactly zero on
consensus states.  With the scalings folded into the operands, dgd_step
makes 8 numpy calls; stepping with eta and eta mu as scalars takes 10.

The round is bound by numpy's per-call cost, not by arithmetic.  On a
3 x 16 x 32 stack (2-vCPU Xeon, one BLAS thread, fastest of repeated
timings), an elementwise call whose operands share a shape takes about
0.95 us, the residual times each row of eta X, which broadcasts, 2.1 us, the
residual's reduction 2.1 us, and each of the two stacked matmuls 2.2-2.3 us.
So run_dgd tiles X, y and B once per run to the number of points, beside
the scaled operands: every call but that one product has operands of the
stack's shape (broadcasting the untiled X, y and B made run_dgd 7-13%
slower on gdbench's dgd_mu_sweep inputs).  eta mu B^T is the transposed
view of the scaled tiled B, never a contiguous copy: each state's product
then takes the 2-D (eta mu B).T's BLAS path, and its bits.  A round writes
into the loop's block buffers and one temporary made with the tiles (fresh
temporaries: 3-5% slower); consensus_metrics, once a block, allocates its
own, which measured as fast as buffers shared across its calls.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .io import dumps, json_int, json_object
from .problem import Dataset, row_inner
from .solvers import _drive, _take, check_stopping

DENSE_GUARD = 4096
ER_MAX_ATTEMPTS = 1000


class GraphConnectError(ValueError):
    """Random graph stayed disconnected for the whole retry budget: a graph
    spec no draw satisfies, refused like any other invalid input."""


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


# the parameters each kind of make_graph reads; a graph records these in its
# params (erdos_renyi also its draw count, attempts), and its seed only if
# the kind draws from it
_READS = {"complete": (), "ring": (), "path": (), "grid": ("rows", "cols"), "k_ring": ("k",),
          "erdos_renyi": ("p", "seed")}


def _refuse_unread(kind: str, given) -> None:
    """Refuse the values of `given` ((name, value) pairs, None for unset,
    seed 0 as unset) that kind does not read; an unknown kind reads all."""
    reads = _READS.get(kind, ("rows", "cols", "k", "p", "seed"))
    unread = [f"{name}={v}" for name, v in given
              if v is not None and not (name == "seed" and v == 0) and name not in reads]
    if unread:
        raise ValueError(f"invalid graph spec: {kind} reads no {', '.join(unread)}")


def make_graph(kind: str, n: int, seed: int = 0, *, rows: int | None = None,
               cols: int | None = None, k: int | None = None,
               p: float | None = None) -> CommGraph:
    """Build a connected simple graph.

    kinds: complete, ring, path, grid (rows x cols = n), k_ring (each node
    linked to its k nearest neighbors per side, 2k < n), erdos_renyi (each
    pair kept with probability p, resampled until connected).  Deterministic
    given seed.  A parameter the kind does not read is refused, and so is a
    nonzero seed for a kind that draws nothing.
    """
    if n < 2:
        raise ValueError(f"invalid graph spec: need n >= 2, got {n}")
    # an unknown kind reads all, and is refused below
    _refuse_unread(kind, (("rows", rows), ("cols", cols), ("k", k), ("p", p), ("seed", seed)))
    params: dict = {}
    if kind == "complete":
        edges = _canon(combinations(range(n), 2))
    elif kind == "ring":
        edges = _canon((i, (i + 1) % n) for i in range(n))
    elif kind == "path":
        edges = _canon((i, i + 1) for i in range(n - 1))
    elif kind == "grid":
        if rows is None or cols is None or rows < 1 or cols < 1 or rows * cols != n:
            raise ValueError(f"invalid graph spec: grid needs rows >= 1 and cols >= 1 with "
                             f"rows*cols == n, got {rows}x{cols} for n={n}")
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


def consensus_metrics(S: np.ndarray, ds: Dataset, B: np.ndarray, mu, resid=None,
                      diffs=None):
    """The trace columns of a stack S of K states (K x n x d; one n x d state
    is the K = 1 case), K values each: mean range-projected error, max
    edge/global parameter spread, and the penalized loss at penalty weight mu
    (one value, or K: each state's own).

    B is the graph's incidence matrix, built once per run by the caller.
    resid (K x n) and diffs (K x E x d), given together, are S's residuals
    row_inner(X, S) - y and its edge differences B S, as run_dgd's rounds
    carry them; without them, they are computed here the same way.

    Each state's values are bitwise those of the same state evaluated alone:
    the stacked products run the same kernel per state, and every squared
    norm is a vecdot, one dot product per state, node or edge; the penalty
    sums the edges' squared norms, and the edge spread is the square root of
    their maximum.  The call allocates its own temporaries, the state-sized
    one used twice; S, resid and diffs are never written.
    """
    S = np.asarray(S, dtype=float)
    if S.shape[-2:] != (ds.n, ds.d) or S.ndim not in (2, 3) or B.shape[1] != ds.n:
        raise ValueError("state, dataset and graph dimensions are inconsistent")
    S = S.reshape(-1, ds.n, ds.d)
    K, n = len(S), ds.n
    if diffs is None:
        resid, diffs = row_inner(ds.X, S) - ds.y, B @ S
    nd = S - ds.w_star
    comp = (nd @ ds.spectral.basis).reshape(K, -1)
    err = np.vecdot(comp, comp) / n
    del comp  # freed before the Gram matrix is made: a lower peak
    edge_sq = np.vecdot(diffs, diffs)
    edge = np.sqrt(edge_sq.max(axis=1, initial=0.0))
    loss = np.vecdot(resid, resid) + mu * np.add.reduce(edge_sq, axis=1)
    # global spread: rows taken relative to row 0 first (the spread is
    # translation-invariant, and the shift keeps the Gram cancellation at the
    # spread's own scale); d2 = (sq_i - 2 G_ij) + sq_j, sq the Gram
    # diagonal, so d2_ii is exactly 0 and the maximum is never negative
    Sc = np.subtract(S, S[:, :1], out=nd)
    gram = Sc @ Sc.transpose(0, 2, 1)
    sq = gram.diagonal(axis1=1, axis2=2).copy()
    d2 = np.multiply(gram, -2.0, out=gram)
    np.add(d2, sq[:, :, None], out=d2)
    np.add(d2, sq[:, None, :], out=d2)
    spread = np.sqrt(d2.reshape(K, -1).max(axis=1))
    return err, edge, spread, loss


@dataclass
class DgdTrace:
    """Per-round metrics of one distributed run (row t = state after t
    rounds), its status and its final state; no other state is kept."""

    t: np.ndarray
    mean_err_sq_range: np.ndarray
    edge_spread: np.ndarray
    global_spread: np.ndarray
    penalized_loss: np.ndarray  # the module docstring's loss at the run's mu
    status: str
    W_final: np.ndarray


def _coupling(eta: float, mu: float) -> float:
    """The round's coupling eta * mu, once eta, mu and the product are checked."""
    coupling = eta * mu
    if not (0 < eta < math.inf and 0 < mu < math.inf and 0 < coupling < math.inf):
        raise ValueError(f"eta, mu and eta * mu must be positive and finite: eta={eta}, mu={mu}")
    return coupling


def dgd_step(W: np.ndarray, e: np.ndarray, D: np.ndarray, eta_X: np.ndarray,
             coupling_Bt: np.ndarray, X: np.ndarray, y: np.ndarray, B: np.ndarray,
             tmp: np.ndarray, out: tuple) -> tuple:
    """One synchronous round of each state k of the stack W (A x n x d),
    W - e (eta_k X) - (eta_k mu_k B^T)(B W), and the residuals and edge
    differences of the new states, which the next round and the trace read.

    e (A x n x 1) and D (A x E x d) are W's residuals row_inner(X, W) - y
    and edge differences B W; eta_X (A x n x d) and coupling_Bt (A x n x E,
    a transposed view) are each point's operands, scaled once per run.
    X, y (A x n x 1) and B are tiled to A copies, and tmp (A x n x d) is
    the round's temporary.  The new states, residuals and edge differences
    go into out, a (W, e, D) triple of buffers, which is returned."""
    W1, e1, D1 = out
    np.subtract(W, np.multiply(e, eta_X, out=tmp), out=W1)
    np.subtract(W1, np.matmul(coupling_Bt, D, out=tmp), out=W1)
    # row_inner(X, W1), into e1
    np.add.reduce(np.multiply(X, W1, out=tmp), axis=-1, keepdims=True, out=e1)
    np.subtract(e1, y, out=e1)
    np.matmul(B, W1, out=D1)
    return out


def run_dgd(ds: Dataset, g: CommGraph, etas, mus, max_iters: int = 1000,
            stop_tol: float = 0.0, W0: np.ndarray | None = None) -> list[DgdTrace]:
    """Synchronous distributed GD rounds from W0, one run per point (etas[k],
    mus[k]), each until stop_tol, divergence, or max_iters; one trace per point.

    The points advance as one stack, each trace bitwise the one its point
    gets alone.  stop_tol is relative to the initial mean projected error;
    zero runs the full max_iters.  Divergence (error above 1e12 times
    initial, or a non-finite metric) is recorded as a status, not raised.
    The trace rows are measured a block of states at a time and no state is
    kept past its block but the final ones; a point that stops inside a block
    takes up to one block minus one extra rounds, whose states are dropped.
    """
    if ds.n != g.n:
        raise ValueError(f"one sample per node required: dataset n={ds.n}, graph n={g.n}")
    if len(etas) != len(mus) or not len(etas):
        raise ValueError(f"need one eta per mu, and a point: {len(etas)} etas, {len(mus)} mus")
    for eta, mu in zip(etas, mus):
        _coupling(eta, mu)
    check_stopping(max_iters, stop_tol)
    W = np.zeros((ds.n, ds.d)) if W0 is None else np.array(W0, dtype=float)
    if W.shape != (ds.n, ds.d):
        raise ValueError(f"W0 must have shape ({ds.n}, {ds.d})")
    B = incidence(g)
    P = len(etas)
    eta, mu = np.array(etas, dtype=float), np.array(mus, dtype=float)
    # dgd_step's operands after the state, one row per point: eta X, eta mu
    # B^T, X, y and B tiled, and the round's temporary; taken again for the
    # running points when the stack shrinks
    X, Bs = np.tile(ds.X, (P, 1, 1)), np.tile(B, (P, 1, 1))
    operands = full = (np.multiply(eta[:, None, None], X),
                       np.multiply((eta * mu)[:, None, None], Bs).transpose(0, 2, 1),
                       X, np.tile(ds.y[:, None], (P, 1, 1)), Bs, np.empty((P, ds.n, ds.d)))

    def step(state, members, out):  # state: (W, e, D), one row per running point
        nonlocal operands
        if len(operands[0]) != len(members):
            operands = _take(full, members)
        dgd_step(*state, *operands, out)

    def metrics(block, members):
        S, e, D = block
        return consensus_metrics(S, ds, B, mu[members], e[..., 0], D)

    with np.errstate(over="ignore", invalid="ignore"):  # _drive reports non-finite metrics
        e0, D0 = row_inner(ds.X, W) - ds.y, B @ W
    cols, lengths, statuses, finals = _drive((W, e0[:, None], D0), P, step, metrics,
                                             max_iters, stop_tol)
    # consensus_metrics's four columns come in DgdTrace's field order
    return [DgdTrace(np.arange(L), *(col[k, :L] for col in cols), statuses[k], finals[k])
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


def _range_block(ds: Dataset, g: CommGraph, eta: float, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """The round operator on range(H) and the graph Laplacian L = B^T B.

    Every x_i lies in range(H), so in the coordinates (W - w_star) [V, V_perp],
    V = ds.spectral.basis (d x r), Q splits exactly into the range block
    Q_r = eta blockdiag(a_i a_i^T) + eta mu (L kron I_r), a_i = V^T x_i, and
    the null block eta mu (L kron I_(d-r)).  Q_r is (n r) x (n r), indexed
    as vec((W - w_star) V): row i r + k is node i's k-th range coordinate.
    """
    coupling = _coupling(eta, mu)
    n, r = ds.n, ds.spectral.rank
    B = incidence(g)
    L = B.T @ B
    A = ds.X @ ds.spectral.basis
    Q = np.zeros((n, r, n, r))
    k, i = np.arange(r), np.arange(n)
    Q[:, k, :, k] = coupling * L  # eta mu L on every coordinate's n x n block
    Q[i, :, i, :] += eta * (A[:, :, None] * A[:, None, :])
    return Q.reshape(n * r, n * r), L


def dgd_operator_spectrum(ds: Dataset, g: CommGraph, eta: float, mu: float) -> OperatorSpectrum:
    """Eigensolve of the round operator block by block (guarded at n r <= 4096).

    The range block Q_r of _range_block takes a dense (n r) x (n r)
    eigensolve, r = rank H.  The null block eta mu (L kron I_(d-r)), present
    when d > r, has the eigenvalues eta mu lambda_j(L), each d - r times; the
    graph is connected, so lambda_1(L) = 0 is simple, and its d - r zeros
    are the exact null space.  Off it, sigma_min is the smaller of Q_r's
    least eigenvalue and eta mu lambda_2(L), and sigma_max the larger of
    Q_r's greatest and eta mu lambda_max(L).

    eigvalsh resolves an eigenvalue of Q_r only to about n r eps sigma_max,
    so a sigma_min < n r eps sigma_max is reported as 0: it cannot be told
    from the exact null space's zeros.  A 0 says that the slowest mode is
    beyond the eigensolve, not which way: consensus modes carrying per-node
    null components approach zero as the coupling eta * mu vanishes, and an
    overwhelming coupling at its stable step leaves eta lambda_min_nz(H)
    below the resolution.
    """
    if ds.n != g.n:
        raise ValueError(f"one sample per node required: dataset n={ds.n}, graph n={g.n}")
    n, d, r = ds.n, ds.d, ds.spectral.rank
    if n * r > DENSE_GUARD:
        raise ValueError(f"too large for dense eigensolve: n*rank = {n * r} > {DENSE_GUARD}")
    Q_r, L = _range_block(ds, g, eta, mu)
    evals = np.linalg.eigvalsh(Q_r)
    sigma_min, sigma_max = float(evals[0]), float(evals[-1])
    if d > r:
        lap = eta * mu * np.linalg.eigvalsh(L)
        sigma_min, sigma_max = min(sigma_min, float(lap[1])), max(sigma_max, float(lap[-1]))
    if sigma_min < n * r * np.finfo(float).eps * sigma_max:
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
    so every mu whose 2 mu max_degree is finite yields a stable round.
    """
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite: mu={mu}")
    if not 2.0 * mu * g.max_degree() < math.inf:  # the step would read 0.0
        raise ValueError(f"mu is too large for a positive stable step: mu={mu}")
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
    """The graph of graph_to_json's text, held to make_graph's rules: n, seed
    and every endpoint JSON integers, n >= 2, every endpoint in [0, n), no
    self-loop or repeated edge, connected, and for a kind make_graph knows,
    no parameter and no nonzero seed that the kind does not read, and the
    edges and parameters make_graph builds from its n, seed and parameters."""
    doc = json_object(text, ("n", "kind", "params", "seed", "edges"), "invalid graph spec")
    try:
        n, kind, seed = json_int(doc["n"], "n"), str(doc["kind"]), json_int(doc["seed"], "seed")
        params = dict(doc["params"])
        edges = [(json_int(i, "an endpoint"), json_int(j, "an endpoint")) for i, j in doc["edges"]]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid graph spec: {exc}") from None
    if n < 2:
        raise ValueError(f"invalid graph spec: need n >= 2, got {n}")
    if kind in _READS:
        recorded = {name: v for name, v in params.items()
                    if not (kind == "erdos_renyi" and name == "attempts")}
        _refuse_unread(kind, [*recorded.items(), ("seed", seed)])
    first = {}  # each edge's first listing, either orientation
    for e in edges:
        if not (0 <= e[0] < n and 0 <= e[1] < n):
            raise ValueError(f"invalid graph spec: edge {list(e)} has a node outside [0, {n})")
        key = (min(e), max(e))
        if e[0] == e[1] or key in first:
            what = "is a self-loop" if e[0] == e[1] else f"repeats edge {list(first[key])}"
            raise ValueError(f"invalid graph spec: edge {list(e)} {what}")
        first[key] = e
    edges = _canon(edges)
    if not is_connected(n, edges):
        raise ValueError(f"invalid graph spec: {kind} on n={n} is not connected")
    g = CommGraph(n=n, edges=edges, kind=kind, params=params, seed=seed)
    if kind in _READS:
        try:
            built = make_graph(kind, n, seed, **recorded)
        except (TypeError, GraphConnectError) as exc:
            raise ValueError(f"invalid graph spec: {exc}") from None
        if built != g:
            raise ValueError(f"invalid graph spec: the file's edges or params differ from the "
                             f"{kind} graph on n={n} with params {recorded} and seed {seed}")
    return g


def load_graph(path: str) -> CommGraph:
    with open(path) as fh:
        return graph_from_json(fh.read())
