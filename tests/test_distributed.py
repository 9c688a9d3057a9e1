"""Tests for graphs, the Laplacian-coupled solver, and its operator spectrum."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdlab.distributed import (
    _canon,
    _range_block,
    GraphConnectError,
    consensus_metrics,
    dgd_operator_spectrum,
    dgd_step,
    graph_from_json,
    graph_to_json,
    incidence,
    is_connected,
    make_graph,
    run_dgd,
    stability_bound,
    stable_eta,
)
from gdlab.presets import build_dataset, build_graph
from gdlab.problem import (
    Dataset,
    dataset_from_rows,
    gen_dataset,
    hessian,
    row_inner,
    spectral_summary,
)
from gdlab.solvers import _BLOCK, DIVERGENCE_FACTOR, _take, fit_rate
from oracles import (
    dense_operator_spectrum,
    dense_round_operator,
    prefix_states,
    range_split,
    reference_dgd,
)


def two_unit_nodes():
    """Two scalar samples x = 1 with labels 0; the fit point is w = 0."""
    return Dataset(X=np.array([[1.0], [1.0]]), y=np.zeros(2), w_star=np.zeros(1),
                   kind="custom", seed=0)


def laplacian(g):
    """Degree-minus-adjacency matrix built edge by edge: the oracle for B^T B."""
    L = np.zeros((g.n, g.n))
    for i, j in g.edges:
        L[i, i] += 1.0
        L[j, j] += 1.0
        L[i, j] -= 1.0
        L[j, i] -= 1.0
    return L


def plain_round(ds, B, eta, mu, W):
    """One round of one state W (n x d) in dgd_step's order of evaluation,
    W - e (eta X) - (eta mu B)^T (B W) with e = row_inner(X, W) - y: the
    2-D formula each state of dgd_step's stacked round is bitwise.  The
    transpose is a view, as in the stack; oracles.reference_round is the
    round as the docstring writes it."""
    e = row_inner(ds.X, W) - ds.y
    return W - e[:, None] * (eta * ds.X) - (eta * mu * B).T @ (B @ W)


def plain_metrics(ds, B, mu, W):
    """consensus_metrics's row of one state W (n x d) in its order of
    evaluation: dot products for the squared sums, and the spread from the
    Gram matrix of the rows relative to row 0, d2 = (sq_i - 2 G_ij) + sq_j
    with sq its diagonal.  oracles.reference_metrics gives the same row by
    the definitions, to rounding."""
    comp = ((W - ds.w_star) @ ds.spectral.basis).ravel()
    diffs = B @ W
    edge_sq = np.vecdot(diffs, diffs)
    e = row_inner(ds.X, W) - ds.y
    Wc = W - W[0]
    G = Wc @ Wc.T
    sq = np.diag(G)
    d2 = (-2.0 * G + sq[:, None]) + sq[None, :]
    return (float(comp @ comp / ds.n), float(np.sqrt(edge_sq.max())),
            float(np.sqrt(d2.max())), float(e @ e + mu * edge_sq.sum()))


class TestMakeGraph:
    def test_ring3_is_complete(self):
        assert make_graph("ring", 3).edges == make_graph("complete", 3).edges == \
            ((0, 1), (0, 2), (1, 2))

    def test_path2_single_edge(self):
        assert make_graph("path", 2).edges == ((0, 1),)

    def test_erdos_renyi_connected(self):
        g = make_graph("erdos_renyi", 10, seed=3, p=0.5)
        # independent breadth-first sweep
        adj = {i: set() for i in range(10)}
        for i, j in g.edges:
            adj[i].add(j)
            adj[j].add(i)
        seen, frontier = {0}, [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u] - seen:
                    seen.add(v)
                    nxt.append(v)
            frontier = nxt
        assert seen == set(range(10))
        assert g.params["attempts"] >= 1

    def test_erdos_renyi_gives_up(self):
        # an invalid spec like any other, so the CLI reports it as one
        with pytest.raises(GraphConnectError) as info:
            make_graph("erdos_renyi", 30, seed=0, p=1e-6)
        assert isinstance(info.value, ValueError)

    def test_loaded_erdos_renyi_no_draw_connects(self):
        # a file whose recorded p no draw connects is refused as a graph spec
        edges = [[i, (i + 1) % 30] for i in range(30)]
        text = json.dumps({"n": 30, "kind": "erdos_renyi", "params": {"p": 1e-6, "attempts": 1},
                           "seed": 0, "edges": edges})
        with pytest.raises(ValueError, match=r"^invalid graph spec: no connected graph in 1000 "
                                             r"attempts \(n=30, p=1e-06\)"):
            graph_from_json(text)

    def test_grid_shape(self):
        g = make_graph("grid", 6, rows=2, cols=3)
        assert len(g.edges) == 7  # 2*2 vertical + 3*1... 2 rows x 3 cols: 4 horizontal + 3 vertical
        assert is_connected(g.n, g.edges)

    def test_k_ring(self):
        g = make_graph("k_ring", 7, k=2)
        assert g.max_degree() == 4
        assert is_connected(g.n, g.edges)

    @pytest.mark.parametrize("kind,kw", [
        ("grid", {"rows": 2, "cols": 2}),     # rows*cols != n below
        ("k_ring", {"k": 3}),
        ("erdos_renyi", {"p": 1.5}),
        ("hypercube", {}),
    ])
    def test_invalid_specs(self, kind, kw):
        with pytest.raises(ValueError, match="invalid graph spec"):
            make_graph(kind, 5, **kw)

    @pytest.mark.parametrize("kind,kw", [
        ("ring", {"rows": 2, "cols": 2}),
        ("complete", {"p": 0.5}),
        ("path", {"k": 1}),
        ("grid", {"rows": 2, "cols": 2, "k": 1}),
        ("k_ring", {"k": 1, "p": 0.3}),
        ("erdos_renyi", {"p": 0.5, "cols": 4}),
        ("ring", {"seed": 5}),
    ])
    def test_parameters_the_kind_does_not_read(self, kind, kw):
        with pytest.raises(ValueError, match=f"invalid graph spec: {kind} reads no"):
            make_graph(kind, 4, **kw)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            make_graph("ring", 1)

    def test_no_self_loops_or_duplicates(self):
        g = make_graph("erdos_renyi", 12, seed=5, p=0.4)
        assert all(i < j for i, j in g.edges)
        assert len(set(g.edges)) == len(g.edges)

    def test_deterministic(self):
        a = make_graph("erdos_renyi", 12, seed=9, p=0.3)
        b = make_graph("erdos_renyi", 12, seed=9, p=0.3)
        assert a.edges == b.edges

    def test_serialization_round_trip(self):
        g = make_graph("erdos_renyi", 9, seed=4, p=0.5)
        back = graph_from_json(graph_to_json(g))
        assert back == g

    @pytest.mark.parametrize("n,edges,message", [
        (16, [[0, 20]], r"edge \[0, 20\] has a node outside \[0, 16\)"),
        (16, [[-1, 3]], r"edge \[-1, 3\] has a node outside \[0, 16\)"),
        (4, [[0, 1], [2, 3]], "not connected"),
        (1, [], "need n >= 2"),
        (3, [[0, 1], [1, 0], [1, 2]], r"edge \[1, 0\] repeats edge \[0, 1\]"),
        (3, [[0, 1], [1, 2], [2, 2]], r"edge \[2, 2\] is a self-loop"),
    ])
    def test_loaded_graph_is_held_to_make_graph_rules(self, n, edges, message):
        # an endpoint outside the nodes once reached incidence, which raised an
        # IndexError or wrapped -1 round to node n - 1; a self-loop or a
        # repeated edge was once dropped, so the graph run was not the file's
        text = json.dumps({"n": n, "kind": "ring", "params": {}, "seed": 0, "edges": edges})
        with pytest.raises(ValueError, match=f"invalid graph spec: .*{message}"):
            graph_from_json(text)

    def test_loaded_edges_take_either_orientation_and_order(self):
        text = json.dumps({"n": 3, "kind": "path", "params": {}, "seed": 0,
                           "edges": [[2, 1], [1, 0]]})
        assert graph_from_json(text) == make_graph("path", 3)

    @pytest.mark.parametrize("kind,params,seed,edges", [
        ("ring", {}, 0, [[0, 1], [1, 2], [2, 3]]),
        ("complete", {}, 0, [[0, 1], [1, 2], [2, 3]]),
        ("path", {}, 0, [[0, 1], [1, 2], [2, 3], [3, 0]]),
        ("grid", {"rows": 2, "cols": 2}, 0, [[0, 1], [1, 2], [2, 3]]),
        ("k_ring", {"k": 1}, 0, [[0, 1], [1, 2], [2, 3], [0, 2]]),
        ("erdos_renyi", {"p": 0.6, "attempts": 1}, 3, [[0, 1], [1, 2], [2, 3]]),
    ])
    def test_loaded_known_kind_carries_its_own_edges(self, kind, params, seed, edges):
        # a 4-node path labelled ring or complete was once loaded and recorded
        # as that kind; a kind make_graph knows is rebuilt from its n, seed
        # and params, and a file listing other edges is refused
        doc = {"n": 4, "kind": kind, "params": params, "seed": seed, "edges": edges}
        with pytest.raises(ValueError, match=f"invalid graph spec: the file's edges or params "
                                             f"differ from the {kind} graph on n=4"):
            graph_from_json(json.dumps(doc))
        assert graph_from_json(json.dumps({**doc, "kind": "custom"})).edges == _canon(edges)

    def test_loaded_erdos_renyi_carries_its_draw_count(self):
        g = make_graph("erdos_renyi", 6, seed=3, p=0.6)
        doc = json.loads(graph_to_json(g))
        doc["params"]["attempts"] += 1
        with pytest.raises(ValueError, match="differ from the erdos_renyi graph on n=6"):
            graph_from_json(json.dumps(doc))

    @pytest.mark.parametrize("kind,params,seed,unread", [
        ("ring", {}, 5, "seed=5"),
        ("complete", {"p": 0.5}, 0, "p=0.5"),
        ("grid", {"rows": 2, "cols": 2, "k": 1}, 0, "k=1"),
        ("erdos_renyi", {"p": 0.5, "attempts": 2, "k": 1}, 3, "k=1"),
    ])
    def test_loaded_graph_reads_what_its_kind_reads(self, kind, params, seed, unread):
        # make_graph's per-kind rule; erdos_renyi's attempts is its record of
        # the draw, and a kind make_graph does not know is taken as written
        edges = [[i, (i + 1) % 4] for i in range(4)]
        doc = {"n": 4, "kind": kind, "params": params, "seed": seed, "edges": edges}
        with pytest.raises(ValueError, match=f"invalid graph spec: {kind} reads no {unread}"):
            graph_from_json(json.dumps(doc))
        g = graph_from_json(json.dumps({**doc, "kind": "custom"}))
        assert (g.params, g.seed) == (params, seed)
        for g in (make_graph("erdos_renyi", 6, seed=3, p=0.6), make_graph("grid", 6, rows=2, cols=3),
                  make_graph("k_ring", 6, k=2)):
            assert graph_from_json(graph_to_json(g)) == g

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_kind_is_connected_and_canonical(self, data):
        kind = data.draw(st.sampled_from(["complete", "ring", "path", "grid", "k_ring",
                                          "erdos_renyi"]))
        kw = {}
        if kind == "grid":
            kw["rows"] = data.draw(st.integers(1, 5))
            kw["cols"] = data.draw(st.integers(2 if kw["rows"] == 1 else 1, 5))
            n = kw["rows"] * kw["cols"]
        else:
            n = data.draw(st.integers(3 if kind == "k_ring" else 2, 14))
        if kind == "k_ring":
            kw["k"] = data.draw(st.integers(1, (n - 1) // 2))
        if kind == "erdos_renyi":
            kw["p"] = data.draw(st.floats(0.5, 1.0))
            kw["seed"] = data.draw(st.integers(0, 2**16))
        g = make_graph(kind, n, **kw)
        assert g.n == n
        assert list(g.edges) == sorted(set(g.edges))
        assert all(0 <= i < j < n for i, j in g.edges)
        L = laplacian(g)
        assert np.linalg.matrix_rank(L) == n - 1  # connected: one zero eigenvalue
        B = incidence(g)
        assert np.array_equal(B.T @ B, L)
        assert g.max_degree() == int(np.diag(L).max())


class TestLaplacian:
    def test_triangle(self):
        L = laplacian(make_graph("ring", 3))
        assert np.array_equal(L, np.array([[2., -1., -1.], [-1., 2., -1.], [-1., -1., 2.]]))
        assert np.allclose(np.linalg.eigvalsh(L), [0.0, 3.0, 3.0], atol=1e-12)

    def test_single_edge(self):
        L = laplacian(make_graph("path", 2))
        assert np.array_equal(L, np.array([[1., -1.], [-1., 1.]]))
        assert np.allclose(np.linalg.eigvalsh(L), [0.0, 2.0], atol=1e-14)

    @pytest.mark.parametrize("kind,kw", [("ring", {}), ("complete", {}),
                                         ("erdos_renyi", {"p": 0.5, "seed": 2})])
    def test_rows_sum_to_zero(self, kind, kw):
        g = make_graph(kind, 8, **kw)
        L = laplacian(g)
        assert np.max(np.abs(L @ np.ones(8))) <= 1e-14
        assert np.array_equal(incidence(g).T @ incidence(g), L)

    def test_quadratic_form_sums_edge_differences(self):
        g = make_graph("erdos_renyi", 6, seed=7, p=0.6)
        rng = np.random.default_rng(8)
        V = rng.standard_normal((6, 4))
        vec = V.reshape(-1)
        form = vec @ np.kron(laplacian(g), np.eye(4)) @ vec
        direct = sum(np.sum((V[i] - V[j]) ** 2) for i, j in g.edges)
        assert abs(form - direct) <= 1e-10 * max(direct, 1.0)


class TestRunDgd:
    def test_two_node_modal_contraction(self):
        # difference mode factor 1 - eta - 2 eta mu = 0: consensus after one
        # round; sum mode factor 1 - eta = 0.5
        ds = two_unit_nodes()
        g = make_graph("path", 2)
        [tr] = run_dgd(ds, g, [0.5], [0.5], max_iters=3,
                       W0=np.array([[1.0], [-1.0]]))
        assert tr.global_spread[0] == 2.0
        assert tr.global_spread[1] == 0.0
        assert tr.mean_err_sq_range[1] == 0.0
        [tr_sum] = run_dgd(ds, g, [0.5], [0.5], max_iters=3,
                           W0=np.array([[1.0], [1.0]]))
        assert np.allclose(tr_sum.W_final.ravel(), [0.125, 0.125], atol=1e-15)

    @pytest.mark.parametrize("kind", ["ring", "complete"])  # degree 2 and n - 1
    def test_interpolating_consensus_is_exact_fixed_point(self, kind):
        ds = gen_dataset(5, 8, "gaussian", seed=40)
        g = make_graph(kind, 5)
        W = np.tile(ds.w_star, (5, 1))
        assert np.array_equal(plain_round(ds, incidence(g), 0.3, 0.1, W), W)
        [tr] = run_dgd(ds, g, [0.3], [0.1], max_iters=5, W0=W)
        assert np.array_equal(prefix_states(ds, g, 0.3, 0.1, W, range(6)), np.tile(W, (6, 1, 1)))
        assert np.all(tr.mean_err_sq_range == 0.0)
        assert np.all(tr.global_spread == 0.0)

    def test_consensus_before_convergence(self):
        # strong coupling, weak gradient: spread crosses 1e-8 of its initial
        # value while the mean error is still strictly shrinking; the whole
        # trajectory matches dense operator powers
        ds = gen_dataset(4, 8, "gaussian", normalize=True, seed=41)
        g = make_graph("complete", 4)
        rng = np.random.default_rng(42)
        W0 = rng.standard_normal((4, 8))
        T = 3600
        [tr] = run_dgd(ds, g, [0.05], [8.0], max_iters=T, W0=W0)
        crossed = np.nonzero(tr.global_spread <= 1e-8 * tr.global_spread[0])[0]
        assert len(crossed) > 0
        assert np.all(np.diff(tr.mean_err_sq_range) < 0)
        A = np.eye(4 * 8) - dense_round_operator(ds, g, 0.05, 8.0)
        delta = np.linalg.matrix_power(A, T) @ (W0 - ds.w_star).reshape(-1)
        final = delta.reshape(4, 8) + ds.w_star
        assert np.allclose(final, tr.W_final, rtol=1e-8, atol=1e-12)

    def test_divergence_recorded(self):
        ds = two_unit_nodes()
        g = make_graph("path", 2)
        [tr] = run_dgd(ds, g, [3.0], [0.1], max_iters=500,
                       W0=np.array([[1.0], [-1.0]]))
        assert tr.status == "diverged"

    def test_dimension_mismatch(self):
        ds = gen_dataset(4, 4, "gaussian", seed=1)
        with pytest.raises(ValueError, match="one sample per node"):
            run_dgd(ds, make_graph("ring", 5), [0.1], [0.1])

    @pytest.mark.parametrize("eta,mu", [(float("nan"), 0.1), (float("inf"), 0.1),
                                        (0.1, float("nan")), (0.1, float("inf")),
                                        (0.1, 0.0), (0.1, -1.0), (1e10, 1e300),
                                        (1e-200, 1e-200)])
    def test_non_finite_eta_or_mu_rejected(self, eta, mu):
        # a non-positive mu, or a coupling eta * mu that overflows or
        # underflows to 0, too
        ds = gen_dataset(4, 4, "gaussian", seed=1)
        g = make_graph("ring", 4)
        with pytest.raises(ValueError, match="finite"):
            run_dgd(ds, g, [eta], [mu], max_iters=10)
        with pytest.raises(ValueError, match="finite"):
            dgd_operator_spectrum(ds, g, eta, mu)
        with pytest.raises(ValueError, match="finite"):
            stability_bound(ds, g, eta, mu)

    def test_incidence_built_once_per_run(self, monkeypatch):
        import gdlab.distributed

        builds = []

        def counted(g):
            builds.append(g)
            return incidence(g)

        monkeypatch.setattr(gdlab.distributed, "incidence", counted)
        ds = gen_dataset(5, 8, "gaussian", seed=40)
        [tr] = run_dgd(ds, make_graph("ring", 5), [0.3], [0.1], max_iters=50)
        assert len(tr.t) == 51
        assert len(builds) == 1

    def test_round_and_metrics_are_called_through_the_module(self, monkeypatch):
        # gdbench's tracer wraps the module's globals, so run_dgd must call
        # dgd_step once per stacked round and consensus_metrics once per
        # block and once for the initial state, through the module
        import gdlab.distributed

        calls = {"dgd_step": 0, "consensus_metrics": 0}
        for name in calls:
            def counted(*args, _f=getattr(gdlab.distributed, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(gdlab.distributed, name, counted)
        ds = gen_dataset(5, 8, "gaussian", seed=40)
        g = make_graph("ring", 5)
        mus = [0.1, 1.0, 10.0]
        traces = run_dgd(ds, g, [stable_eta(ds, g, mu) for mu in mus], mus, max_iters=300)
        assert [len(tr.t) for tr in traces] == [301] * 3
        blocks = -(-300 // (_BLOCK // 3))  # 42 rounds of the 3 points a block
        assert calls == {"dgd_step": 300, "consensus_metrics": blocks + 1}

    def test_tiles_made_once_per_run(self, monkeypatch):
        # X, y and B are tiled to the points once per run, not once per
        # round or block, and not again when the stack shrinks
        import gdlab.distributed

        ds = gen_dataset(5, 8, "gaussian", seed=40)
        g = make_graph("ring", 5)
        B = incidence(g)
        tiled = []
        tile = np.tile

        def counted(a, reps):
            for name, src in (("X", ds.X), ("y", ds.y), ("B", B)):
                if np.shares_memory(a, src):
                    tiled.append(name)
            return tile(a, reps)

        monkeypatch.setattr(gdlab.distributed, "incidence", lambda _: B)
        monkeypatch.setattr(np, "tile", counted)
        mus = [0.1, 1.0, 10.0]
        traces = run_dgd(ds, g, [stable_eta(ds, g, mu) for mu in mus], mus, max_iters=5000,
                         stop_tol=1e-2, W0=np.random.default_rng(41).standard_normal((5, 8)))
        assert len({len(tr.t) for tr in traces}) == 3  # the stack shrank twice
        assert max(len(tr.t) for tr in traces) > 3 * _BLOCK  # over many blocks
        assert sorted(tiled) == ["B", "X", "y"]


class TestDgdStep:
    def test_every_round_is_the_2d_step_of_each_state(self):
        # a 3-point stack on a 28-edge graph, shrunk to points [0, 2] and then
        # [2] as _drive does: each state's round is bitwise its plain round,
        # and the residuals and edge differences it writes are bitwise the
        # state's own.  Scaling a contiguous copy of B^T, not taking the
        # transposed view of the scaled tiled B, takes another BLAS path and
        # fails here (with numpy's OpenBLAS 0.3 the two paths' bits differ
        # at d = 4, not at d = 8)
        ds = gen_dataset(8, 4, "gaussian", seed=91)
        g = make_graph("complete", 8)
        assert len(g.edges) == 28
        B = incidence(g)
        mus = np.array([0.1, 1.0, 10.0])
        etas = np.array([stable_eta(ds, g, mu) for mu in mus])
        W0 = np.random.default_rng(92).standard_normal((8, 4))
        # run_dgd's loop state, W, its residuals (A x n x 1) and edge
        # differences, then its operands eta X and the transposed view of
        # eta mu B
        x = (np.tile(W0, (3, 1, 1)), np.tile((row_inner(ds.X, W0) - ds.y)[:, None], (3, 1, 1)),
             np.tile(B @ W0, (3, 1, 1)), etas[:, None, None] * ds.X,
             ((etas * mus)[:, None, None] * B).transpose(0, 2, 1))
        # X, y and B tiled to the points, and the round's temporary, each
        # used through leading slices
        tiled = (np.tile(ds.X, (3, 1, 1)), np.tile(ds.y[:, None], (3, 1, 1)),
                 np.tile(B, (3, 1, 1)), np.empty((3, 8, 4)))
        points = np.arange(3)
        for keep in (None, [True, False, True], [False, True]):
            if keep is not None:
                x, points = _take(x, np.array(keep)), points[keep]
            for _ in range(20):
                W, e, D, eta_X, coupling_Bt = x
                out = (np.empty_like(W), np.empty_like(e), np.empty_like(D))
                W_next, e_next, D_next = dgd_step(W, e, D, eta_X, coupling_Bt,
                                                  *(a[:len(W)] for a in tiled), out)
                for k, p in enumerate(points):
                    assert np.array_equal(W_next[k], plain_round(ds, B, etas[p], mus[p], W[k]))
                    assert np.array_equal(e_next[k, :, 0], row_inner(ds.X, W_next[k]) - ds.y)
                    assert np.array_equal(D_next[k], B @ W_next[k])
                x = (W_next, e_next, D_next, eta_X, coupling_Bt)
        assert points.tolist() == [2]


class TestConsensusMetrics:
    def test_consensus_at_fit_point_is_zero(self):
        ds = gen_dataset(4, 6, "gaussian", seed=50)
        g = make_graph("ring", 4)
        err, edge_spread, global_spread, _ = consensus_metrics(
            np.tile(ds.w_star, (4, 1)), ds, incidence(g), 1.0)
        assert err == 0.0
        assert edge_spread == 0.0
        assert global_spread == 0.0

    def test_two_nodes_offset_along_unit_direction(self):
        ds = gen_dataset(2, 4, "gaussian", seed=51)
        g = make_graph("path", 2)
        u = np.array([1.0, 0.0, 0.0, 0.0])
        delta = 0.3
        W = np.vstack([ds.w_star + delta * u, ds.w_star - delta * u])
        _, _, global_spread, _ = consensus_metrics(W, ds, incidence(g), 1.0)
        assert global_spread == pytest.approx(2 * delta, rel=1e-12)

    def test_global_spread_dominates_edge_spread(self):
        ds = gen_dataset(6, 5, "gaussian", seed=52)
        g = make_graph("ring", 6)
        B = incidence(g)
        rng = np.random.default_rng(53)
        for _ in range(10):
            _, edge_spread, global_spread, _ = consensus_metrics(
                rng.standard_normal((6, 5)), ds, B, 1.0)
            assert global_spread >= edge_spread - 1e-12

    def test_consensus_off_the_fit_has_zero_spread(self):
        # every node at w_star + v, v in range(H): the edge and global spreads
        # are exactly 0, and the error and the loss are not
        ds = gen_dataset(5, 8, "gaussian", seed=49)
        v = range_split(ds.spectral, np.random.default_rng(48).standard_normal(8))[0]
        W = np.tile(ds.w_star + v, (5, 1))
        for g in (make_graph("ring", 5), make_graph("complete", 5)):
            err, edge_spread, global_spread, loss = consensus_metrics(W, ds, incidence(g), 1.0)
            assert err[0] > 0.0 and loss[0] > 0.0
            assert edge_spread[0] == 0.0
            assert global_spread[0] == 0.0

    def test_block_rows_are_each_states_standalone_values(self):
        # blocks of decreasing size, with and without the carried residuals
        # and edge differences: every state's values are bitwise those it
        # gets alone, and the inputs are left as they were
        ds = gen_dataset(6, 9, "gaussian", seed=56)
        B = incidence(make_graph("ring", 6))
        rng = np.random.default_rng(57)
        for K in (_BLOCK, 3, 1):
            S = rng.standard_normal((K, 6, 9))
            mu = rng.uniform(0.1, 10.0, K)
            resid, diffs = row_inner(ds.X, S) - ds.y, B @ S
            inputs = (S, resid, diffs)
            before = [a.copy() for a in inputs]
            for cols in (consensus_metrics(S, ds, B, mu, resid, diffs),
                         consensus_metrics(S, ds, B, mu)):
                for a, was in zip(inputs, before):
                    assert np.array_equal(a, was)
                for k in range(K):
                    alone = consensus_metrics(S[k], ds, B, mu[k])
                    assert [col[k] for col in cols] == [col[0] for col in alone]

    def test_standalone_call_allocates_only_its_temporaries(self):
        # a call once also made a run's block buffers, which it never
        # touched: 7.3 times the stack's bytes on this input
        ds, g = build_dataset("ring16"), build_graph("ring16")
        B = incidence(g)
        S = np.random.default_rng(58).standard_normal((128, ds.n, ds.d))
        consensus_metrics(S[:1], ds, B, 1.0)  # the dataset's cached eigensolve, made once
        tracemalloc.start()
        try:
            consensus_metrics(S, ds, B, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * S.nbytes

    def test_trace_rows_match_single_state_metrics_bitwise(self):
        # rows measured a block at a time, from the residuals and edge
        # differences the rounds carry, equal the plain formulas on each
        # row's state, bit for bit, at the block boundaries, where block
        # metrics could misplace a row
        ds = gen_dataset(6, 9, "gaussian", seed=54)
        g = make_graph("ring", 6)
        B = incidence(g)
        mu = 0.1
        W0 = np.random.default_rng(55).standard_normal((6, 9))
        [tr] = run_dgd(ds, g, [0.3], [mu], max_iters=_BLOCK + 40, W0=W0)
        assert len(tr.t) == _BLOCK + 41
        rows = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 40]
        for t, W in zip(rows, prefix_states(ds, g, 0.3, mu, W0, rows)):
            row = plain_metrics(ds, B, mu, W)
            assert row == (tr.mean_err_sq_range[t], tr.edge_spread[t],
                           tr.global_spread[t], tr.penalized_loss[t])
            assert row == tuple(col[0] for col in consensus_metrics(W, ds, B, mu))


class TestOperatorSpectrum:
    def test_two_node_hand_solve(self):
        ds = two_unit_nodes()
        g = make_graph("path", 2)
        sp = dgd_operator_spectrum(ds, g, eta=0.5, mu=0.5)
        assert sp.sigma_min == pytest.approx(0.5, abs=1e-12)
        assert sp.sigma_max == pytest.approx(1.0, abs=1e-12)
        assert sp.rate_spectral == pytest.approx(0.5, abs=1e-12)
        assert sp.stable

    def test_zero_coupling_reports_zero_sigma_min(self):
        # a vanishing penalty leaves the per-node null modes at eigenvalue ~0, and so
        # does an overwhelming one at its stable step; rate_spectral reads the
        # reported, clamped sigma_min, not the rounding-signed eigenvalue under it
        ring16 = build_dataset("ring16"), build_graph("ring16")
        for ds, g, eta, mu in [
            (gen_dataset(3, 4, "gaussian", seed=55), make_graph("ring", 3), 0.2, 1e-300),
            (*ring16, stable_eta(*ring16, 1e-300), 1e-300),
            (*ring16, stable_eta(*ring16, 1e300), 1e300),
        ]:
            sp = dgd_operator_spectrum(ds, g, eta=eta, mu=mu)
            assert sp.sigma_min == 0.0
            assert sp.rate_spectral == max(1.0 - sp.sigma_min, sp.sigma_max - 1.0) == 1.0, mu

    @pytest.mark.parametrize("mu", [1e4, 1e5])
    def test_slow_mode_above_the_resolution_is_kept(self, mu):
        # sigma_min ~ 3.59e-8 sits above eigvalsh's resolution n d eps sigma_max
        # (1.7e-10 at mu = 1e4, 1.7e-9 at 1e5); a floor of 1e-11 sigma_max once
        # reported it as 0
        ds = gen_dataset(8, 8, "spiked", rho=0.9, seed=2)
        eta = 0.5 / float(ds.row_norms_sq().max())
        sp = dgd_operator_spectrum(ds, make_graph("path", 8), eta, mu)
        assert sp.sigma_min == pytest.approx(eta * ds.spectral.lambda_min_nz, rel=1e-3)
        assert sp.rate_spectral == sp.sigma_max - 1.0

    def test_ring4_orthonormal_bound(self):
        ds = gen_dataset(4, 4, "orthonormal", seed=56)
        g = make_graph("ring", 4)
        sp = dgd_operator_spectrum(ds, g, eta=1.0, mu=1.0)
        lam_min = spectral_summary(hessian(ds)).lambda_min_nz
        assert 0 < sp.sigma_min <= 1.0 * lam_min + 1e-10

    def test_dense_guard(self):
        ds = gen_dataset(65, 64, "gaussian", seed=57)
        g = make_graph("ring", 65)
        with pytest.raises(ValueError, match="too large"):
            dgd_operator_spectrum(ds, g, 0.1, 0.1)


class TestStabilityBound:
    def test_two_node_bound_is_tight_here(self):
        ds = two_unit_nodes()
        g = make_graph("path", 2)
        bound, ok = stability_bound(ds, g, 0.5, 0.5)
        assert bound == pytest.approx(1.0, abs=1e-15)
        assert ok
        assert bound >= dgd_operator_spectrum(ds, g, 0.5, 0.5).sigma_max - 1e-12

    def test_large_step_flagged(self):
        ds = gen_dataset(4, 4, "gaussian", normalize=True, seed=58)
        g = make_graph("ring", 4)
        bound, ok = stability_bound(ds, g, 3.0, 0.01)
        assert bound >= 3.0
        assert not ok

    def test_ring8_conservative(self):
        ds = gen_dataset(8, 8, "gaussian", normalize=True, seed=59)
        g = make_graph("ring", 8)
        bound, ok = stability_bound(ds, g, 0.1, 1.0)
        assert bound == pytest.approx(0.5, abs=1e-12)
        assert ok
        assert dgd_operator_spectrum(ds, g, 0.1, 1.0).sigma_max <= bound + 1e-12


@st.composite
def small_configs(draw):
    """A small dataset, a connected graph on its samples, and a penalty weight
    mu spanning 1e-3 to 1e6."""
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["orthonormal", "gaussian", "spiked"]))
    d = draw(st.integers(n if kind == "orthonormal" else 1, 8))
    ds = gen_dataset(n, d, kind, rho=0.9 if kind == "spiked" else 0.0,
                     normalize=draw(st.booleans()), seed=draw(st.integers(0, 2**16)))
    gkind = draw(st.sampled_from(["ring", "path", "complete", "k_ring", "erdos_renyi"]))
    if gkind == "k_ring" and n < 3:
        gkind = "path"
    g = make_graph(gkind, n, seed=draw(st.integers(0, 2**16)) if gkind == "erdos_renyi" else 0,
                   k=draw(st.integers(1, (n - 1) // 2)) if gkind == "k_ring" else None,
                   p=draw(st.floats(0.4, 1.0)) if gkind == "erdos_renyi" else None)
    return ds, g, 10.0 ** draw(st.floats(-3.0, 6.0))


class TestOnePenaltyConvention:
    @settings(max_examples=80, deadline=None)
    @given(small_configs())
    def test_stable_eta_gives_a_stable_round(self, config):
        # stable_eta, stability_bound and the spectrum all read mu as the
        # loss weight; rounding may lift the bound an ulp above 1
        ds, g, mu = config
        eta = stable_eta(ds, g, mu)
        bound, _ = stability_bound(ds, g, eta, mu)
        assert bound <= 1.0 + 2 * np.finfo(float).eps
        sp = dgd_operator_spectrum(ds, g, eta, mu)
        assert sp.sigma_max <= bound + 1e-12
        assert sp.stable

    def test_stable_eta_refuses_a_mu_with_no_positive_step(self):
        # 2 mu max_degree overflows at mu = 1e308 on a ring, where the step
        # once read 0.0, which every round then refused as a bad eta
        ds, g = build_dataset("gaussian8"), make_graph("ring", 8)
        assert stable_eta(ds, g, 1e300) > 0
        with pytest.raises(ValueError, match=r"^mu is too large .*: mu=1e\+308$"):
            stable_eta(ds, g, 1e308)


class TestRangeBlockSolve:
    """dgd_operator_spectrum solves the round operator on its range block and
    reads the null block off the Laplacian; the dense nd x nd eigensolve is
    the oracle.  sigma_max and rate_spectral agree to 1e-12 relative, and
    sigma_min to the dense solve's resolution n d eps sigma_max."""

    def assert_matches_dense(self, ds, g, eta, mu):
        sp, dense = dgd_operator_spectrum(ds, g, eta, mu), dense_operator_spectrum(ds, g, eta, mu)
        assert sp.sigma_max == pytest.approx(dense.sigma_max, rel=1e-12, abs=0.0)
        assert sp.rate_spectral == pytest.approx(dense.rate_spectral, rel=1e-12, abs=0.0)
        assert abs(sp.sigma_min - dense.sigma_min) <= \
            ds.n * ds.d * np.finfo(float).eps * dense.sigma_max
        assert sp.stable == dense.stable

    @settings(max_examples=80, deadline=None)
    @given(small_configs(), st.floats(0.05, 1.0))
    def test_agrees_with_the_dense_solve(self, config, scale):
        ds, g, mu = config
        self.assert_matches_dense(ds, g, scale * stable_eta(ds, g, mu), mu)

    @pytest.mark.parametrize("preset, graph_kind, rank_below_d", [
        ("ring16", "ring", True), ("gaussian8", "complete", False)])
    def test_fixed_cases_agree_with_the_dense_solve(self, preset, graph_kind, rank_below_d):
        ds = build_dataset(preset)
        g = make_graph(graph_kind, ds.n)
        assert (ds.spectral.rank < ds.d) == rank_below_d
        for mu in (0.1, 1.0, 10.0):
            self.assert_matches_dense(ds, g, stable_eta(ds, g, mu), mu)

    def test_null_block_sets_sigma_min(self):
        # H = diag(1, 0) on a 2-node path: the range block eta [[1, 0], [0, 1]]
        # + eta mu L has eigenvalues eta and eta + 2 eta mu, the null block
        # eta mu L has 0 (the exact null space) and 2 eta mu = 0.1 < eta
        ds = Dataset(X=np.array([[1.0, 0.0], [1.0, 0.0]]), y=np.zeros(2), w_star=np.zeros(2),
                     kind="custom", seed=0)
        g = make_graph("path", 2)
        sp = dgd_operator_spectrum(ds, g, eta=0.5, mu=0.1)
        assert sp.sigma_min == pytest.approx(0.1, abs=1e-15)
        assert sp.sigma_max == pytest.approx(0.6, abs=1e-15)
        assert sp.rate_spectral == pytest.approx(0.9, abs=1e-15)
        assert np.linalg.eigvalsh(_range_block(ds, g, 0.5, 0.1)[0]) == \
            pytest.approx([0.5, 0.6], abs=1e-15)
        self.assert_matches_dense(ds, g, 0.5, 0.1)

    def test_null_block_sets_sigma_min_of_rank_one_rows(self):
        # rows s_i u on a ring of 6: Q_r >= eta min s_i^2 |u|^2, above the
        # null block's eta mu lambda_2(L) = eta mu at this mu
        rng = np.random.default_rng(7)
        X = (1.0 + rng.random(6))[:, None] * rng.standard_normal(3)
        ds = Dataset(X=X, y=np.zeros(6), w_star=np.zeros(3), kind="custom", seed=0)
        g = make_graph("ring", 6)
        eta, mu = 0.5 / float(ds.row_norms_sq().max()), 1e-3
        assert ds.spectral.rank == 1
        assert dgd_operator_spectrum(ds, g, eta, mu).sigma_min == pytest.approx(eta * mu, rel=1e-12)
        self.assert_matches_dense(ds, g, eta, mu)

    @pytest.mark.parametrize("preset, graph_kind, mu", [
        ("ring16", "ring", 1.0), ("ring16", "ring", 10.0), ("gaussian8", "complete", 10.0)])
    def test_trajectory_is_the_range_block_powers(self, preset, graph_kind, mu):
        # DGD is linear in the error, and the error's range part evolves by
        # I - Q_r: with Q_r = U diag(sigma) U^T and c = U^T vec((W0 - w*) V),
        # mean_err_sq_range(t) = (1/n) sum_k (1 - sigma_k)^(2t) c_k^2, checked
        # wherever the prediction is above 1e-10 of its start
        ds = build_dataset(preset)
        g = make_graph(graph_kind, ds.n)
        eta, T = stable_eta(ds, g, mu), 20_000
        W0 = np.random.default_rng(5).standard_normal((ds.n, ds.d))
        [tr] = run_dgd(ds, g, [eta], [mu], max_iters=T, stop_tol=0.0, W0=W0)
        sigma, U = np.linalg.eigh(_range_block(ds, g, eta, mu)[0])
        c = U.T @ ((W0 - ds.w_star) @ ds.spectral.basis).reshape(-1)
        t = np.arange(T + 1)
        pred = sum(ck * ck * (1.0 - s) ** (2 * t) for s, ck in zip(sigma, c)) / ds.n
        seen = pred > 1e-10 * pred[0]
        assert seen.sum() > T // 2
        assert np.abs(tr.mean_err_sq_range[seen] / pred[seen] - 1.0).max() <= 1e-9


class TestPenaltyWeightClaims:
    """The paper's claims in mu, on the round operator at a fixed eta.
    Q(mu2) - Q(mu1) = eta (mu2 - mu1) (L kron I) is positive semidefinite
    for mu1 < mu2, so sigma_min off the exact null space cannot fall as mu
    grows (Weyl); a consensus state along H's smallest nonzero eigenvector
    gives sigma_min <= eta lambda_min_nz(H); and Q(mu1) >= (mu1 / mu2) Q(mu2),
    so sigma_min falls at most in proportion to mu as mu -> 0 and stays
    positive at every mu > 0: consensus needs no mu -> infinity.  As mu ->
    infinity, sigma_min rises to eta lambda_min_nz, the rate of consensus
    states.

    dgd_operator_spectrum reports a sigma_min below its resolution
    n d eps sigma_max as 0, so each check reads such a 0 as "at most the
    floor"."""

    EPS = np.finfo(float).eps

    @st.composite
    def cases(draw):
        """small_configs's dataset and graph (n d <= 64), an eta up to the
        largest stable one for the rows, and a rising mu grid from 1e-4 to 1e4."""
        ds, g, _ = draw(small_configs())
        eta = draw(st.floats(0.01, 1.0)) / float(ds.row_norms_sq().max())
        inner = draw(st.lists(st.floats(-4.0, 4.0), max_size=5))
        mus = 10.0 ** np.unique([-4.0, 4.0, *inner])
        spectra = [dgd_operator_spectrum(ds, g, eta, mu) for mu in mus]
        return mus, eta * ds.spectral.lambda_min_nz, spectra, ds.n * ds.d

    def at_most(self, sp, value, nd):
        """sp's sigma_min may stand for value: at least it up to rounding, or
        0 with value under the floor nd eps sigma_max."""
        slack = 1e-12 * max(sp.sigma_max, 1.0)
        return sp.sigma_min >= value - slack or (
            sp.sigma_min == 0.0 and value < nd * self.EPS * sp.sigma_max + slack)

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_sigma_min_does_not_fall_as_mu_grows(self, case):
        _, _, spectra, nd = case
        for lo, hi in zip(spectra, spectra[1:]):
            assert self.at_most(hi, lo.sigma_min, nd)

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_sigma_min_is_at_most_eta_lambda_min(self, case):
        _, eta_lam, spectra, _ = case
        for sp in spectra:
            assert sp.sigma_min <= eta_lam + 1e-12 * sp.sigma_max

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_sigma_min_is_positive_at_every_mu(self, case):
        # positive at the grid's best mu, then at least (mu / best) of it
        # below, and (by the monotone property) at least it above
        mus, _, spectra, nd = case
        best = int(np.argmax([sp.sigma_min for sp in spectra]))
        assert spectra[best].sigma_min > 0
        for mu, sp in zip(mus[:best], spectra[:best]):
            assert self.at_most(sp, mu / mus[best] * spectra[best].sigma_min, nd)

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_sigma_min_reaches_eta_lambda_min_as_mu_grows(self, case):
        # at the grid's top, mu = 1e4, within 1% of the limit: over 3,000
        # drawn cases the ratio ran from 0.99955 to 1.00007
        mus, eta_lam, spectra, nd = case
        assert mus[-1] == 1e4
        assert self.at_most(spectra[-1], 0.99 * eta_lam, nd)


def one_point_loop(ds, g, eta, mu, max_iters, stop_tol, W0):
    """One point's run as a plain loop of 2-D rounds, each state measured
    alone: its rows, status and final state."""
    B = incidence(g)
    W = W0
    rows = [plain_metrics(ds, B, mu, W)]
    err0 = rows[0][0]
    if stop_tol > 0 and err0 <= stop_tol * err0:
        return rows, "converged", W
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iters):
            W_next = plain_round(ds, B, eta, mu, W)
            row = plain_metrics(ds, B, mu, W_next)
            if not np.all(np.isfinite(row)):
                return rows, "diverged", W
            W = W_next
            rows.append(row)
            if stop_tol > 0 and row[0] <= stop_tol * err0:
                return rows, "converged", W
            if not row[0] <= DIVERGENCE_FACTOR * err0:
                return rows, "diverged", W
    return rows, "max-iters", W


@st.composite
def point_stacks(draw):
    """A small dataset and graph, 1-4 points (eta from 0.1 to 5 times the
    stable step, so some diverge), a stop_tol, a round cap across blocks, and
    a W0 at unit scale or at 1e150, where a diverging point's loss overflows
    before its error passes the divergence factor."""
    ds, g, _ = draw(small_configs())
    mus = [10.0 ** draw(st.floats(-2.0, 1.0)) for _ in range(draw(st.integers(1, 4)))]
    etas = [stable_eta(ds, g, mu) * 10.0 ** draw(st.floats(-1.0, 0.7)) for mu in mus]
    scale = draw(st.sampled_from([1.0, 1e150]))
    W0 = scale * np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((ds.n, ds.d))
    return (ds, g, etas, mus, draw(st.integers(1, 400)),
            draw(st.sampled_from([0.0, 1e-8, 1e-3])), W0)


class TestPointStack:
    @settings(max_examples=60, deadline=None)
    @given(point_stacks())
    def test_each_point_is_its_plain_loop(self, config):
        ds, g, etas, mus, max_iters, stop_tol, W0 = config
        traces = run_dgd(ds, g, etas, mus, max_iters=max_iters, stop_tol=stop_tol, W0=W0)
        assert len(traces) == len(etas)
        for tr, eta, mu in zip(traces, etas, mus):
            rows, status, W_final = one_point_loop(ds, g, eta, mu, max_iters, stop_tol, W0)
            cols = np.array(rows).T
            assert np.array_equal(tr.t, np.arange(len(rows)))
            for got, want in zip((tr.mean_err_sq_range, tr.edge_spread, tr.global_spread,
                                  tr.penalized_loss), cols):
                assert np.array_equal(got, want)
            assert tr.status == status
            assert np.array_equal(tr.W_final, W_final)

    def test_more_points_than_a_block(self):
        # 300 points make blocks of 300 states, past _BLOCK: the loop's
        # buffers are sized for them, and every trace is bitwise its point's
        # plain loop
        ds = gen_dataset(5, 7, "gaussian", seed=58)
        g = make_graph("ring", 5)
        mus = list(np.geomspace(0.01, 10.0, 300))
        etas = [stable_eta(ds, g, mu) for mu in mus]
        W0 = np.random.default_rng(59).standard_normal((5, 7))
        assert len(mus) > _BLOCK
        traces = run_dgd(ds, g, etas, mus, max_iters=3, W0=W0)
        for eta, mu, tr in zip(etas, mus, traces):
            rows, status, W_final = one_point_loop(ds, g, eta, mu, 3, 0.0, W0)
            assert np.array_equal(tr.t, np.arange(4))
            for got, want in zip((tr.mean_err_sq_range, tr.edge_spread, tr.global_spread,
                                  tr.penalized_loss), np.array(rows).T):
                assert np.array_equal(got, want)
            assert np.array_equal(tr.W_final, W_final)
            assert tr.status == status

    def test_stop_at_a_blocks_first_row_keeps_its_entry_state(self):
        # a consensus state on two unit nodes is scaled by 1 - eta = -1.1 a
        # round, and W0 is sized so that the loss first overflows in round
        # _BLOCK + 1, the second block's first row, while the error is still
        # within the divergence factor.  The final state is then that
        # block's entry state, which the block's own rounds must not
        # overwrite
        ds = two_unit_nodes()
        g = make_graph("path", 2)
        W0 = np.full((2, 1), np.sqrt(np.finfo(float).max / 2 / 1.21 ** (_BLOCK + 0.5)))
        [tr] = run_dgd(ds, g, [2.1], [0.1], max_iters=3 * _BLOCK, W0=W0)
        rows, status, W_final = one_point_loop(ds, g, 2.1, 0.1, 3 * _BLOCK, 0.0, W0)
        assert len(tr.t) == len(rows) == _BLOCK + 1
        assert tr.status == status == "diverged"
        assert np.all(np.isfinite(W_final))
        assert np.array_equal(tr.W_final, W_final)

    def test_points_must_pair_up(self):
        ds = gen_dataset(4, 4, "gaussian", seed=1)
        g = make_graph("ring", 4)
        for etas, mus in (([0.1, 0.2], [0.1]), ([], [])):
            with pytest.raises(ValueError, match="one eta per mu"):
                run_dgd(ds, g, etas, mus)


class TestDistributedInvariants:
    DATASETS = [("orthonormal", {}, 81), ("gaussian", {"normalize": True}, 82),
                ("spiked", {"rho": 0.9, "normalize": True}, 83)]

    def test_sigma_min_positive_and_bounded(self):
        for kind, kw, seed in self.DATASETS:
            ds = gen_dataset(8, 8, kind, seed=seed, **kw)
            lam_min = spectral_summary(hessian(ds)).lambda_min_nz
            for gkind in ("ring", "path", "complete"):
                g = make_graph(gkind, 8)
                for eta, mu in [(0.2, 0.25), (0.1, 0.2), (0.05, 4.0)]:
                    sp = dgd_operator_spectrum(ds, g, eta, mu)
                    assert sp.sigma_min > 0
                    assert sp.sigma_min <= eta * lam_min + 1e-10

    def test_round_is_linear_in_the_error(self):
        ds = gen_dataset(4, 6, "gaussian", seed=70)
        g = make_graph("ring", 4)
        rng = np.random.default_rng(71)
        W0 = rng.standard_normal((4, 6))
        T = 20
        [tr] = run_dgd(ds, g, [0.2], [0.5], max_iters=T, W0=W0)
        A = np.eye(4 * 6) - dense_round_operator(ds, g, 0.2, 0.5)
        delta = np.linalg.matrix_power(A, T) @ (W0 - ds.w_star).reshape(-1)
        assert np.allclose(tr.W_final - ds.w_star, delta.reshape(4, 6),
                           rtol=1e-8, atol=1e-12)

    def test_shared_null_component_preserved(self):
        ds = gen_dataset(4, 8, "gaussian", seed=72)
        rp = ds.spectral
        rng = np.random.default_rng(73)
        u = range_split(rp, rng.standard_normal(8))[1]
        u /= np.linalg.norm(u)
        w0 = ds.w_star + range_split(rp, rng.standard_normal(8))[0] + u
        g = make_graph("ring", 4)
        states = prefix_states(ds, g, 0.3, 0.1, np.tile(w0, (4, 1)), range(101))
        comps = (states - ds.w_star) @ u  # (T+1, n)
        assert np.max(np.abs(comps - comps[0])) <= 1e-12

    def test_consensus_for_all_penalty_weights(self):
        # stabilized step size: consensus to 1e-8 for weights spanning 100x
        ds = gen_dataset(8, 8, "gaussian", normalize=True, seed=74)
        g = make_graph("ring", 8)
        rng = np.random.default_rng(75)
        W0 = rng.standard_normal((8, 8))
        for mu in (0.1, 1.0, 10.0):
            eta = stable_eta(ds, g, mu)
            [tr] = run_dgd(ds, g, [eta], [mu], max_iters=80_000,
                           stop_tol=1e-16, W0=W0)
            assert tr.status == "converged"
            assert tr.global_spread[-1] <= 1e-8 * tr.global_spread[0]

    @pytest.mark.parametrize("preset, graph_kind, max_iters", [
        ("ring16", "ring", 12_000), ("gaussian8", "complete", 3_000)])
    def test_rounds_agree_with_the_reference_formulas(self, preset, graph_kind, max_iters):
        # dgd_step and consensus_metrics evaluate the round and the row in
        # their own order: every column and W_final stay within 1e-9
        # relative of the defining formulas wherever the error is above
        # 1e-10 of its start (ring16 gets there in 11,566 rounds)
        ds = build_dataset(preset)
        g = make_graph(graph_kind, ds.n)
        eta = stable_eta(ds, g, 1.0)
        W0 = np.random.default_rng(5).standard_normal((ds.n, ds.d))
        [tr] = run_dgd(ds, g, [eta], [1.0], max_iters=max_iters, stop_tol=1e-10, W0=W0)
        rows, W_final = reference_dgd(ds, g, eta, 1.0, W0, len(tr.t) - 1)
        got = np.array([tr.mean_err_sq_range, tr.edge_spread, tr.global_spread,
                        tr.penalized_loss]).T
        seen = rows[:, 0] > 1e-10 * rows[0, 0]
        assert seen.sum() >= len(tr.t) - 1
        assert np.all(np.abs(got[seen] - rows[seen]) <= 1e-9 * np.abs(rows[seen]))
        assert np.abs(tr.W_final - W_final).max() <= 1e-9 * np.abs(W_final).max()

    def test_rate_band_and_spectral_agreement(self):
        ds = gen_dataset(8, 8, "orthonormal", seed=76)
        g = make_graph("ring", 8)
        lam_min = spectral_summary(hessian(ds)).lambda_min_nz
        rng = np.random.default_rng(77)
        W0 = rng.standard_normal((8, 8))
        for mu in (0.1, 1.0):
            eta = stable_eta(ds, g, mu)
            sp = dgd_operator_spectrum(ds, g, eta, mu)
            [tr] = run_dgd(ds, g, [eta], [mu], max_iters=20_000, W0=W0)
            fit = fit_rate(tr.mean_err_sq_range, tail=True)
            r_hat = np.sqrt(fit.rate)
            assert 1.0 - eta * lam_min - 0.02 <= r_hat < 1.0
            assert abs(r_hat - sp.rate_spectral) <= 0.01 * sp.rate_spectral
