"""Tests for graphs, the Laplacian-coupled solver, and its operator spectrum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdlab.distributed import (
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
    spectral_summary,
)
from gdlab.solvers import _BLOCK, DIVERGENCE_FACTOR, default_fit_window, estimate_rate


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


def dense_round_operator(ds, g, eta, mu):
    n, d = ds.n, ds.d
    Q = eta * mu * np.kron(laplacian(g), np.eye(d))
    for i in range(n):
        Q[i * d:(i + 1) * d, i * d:(i + 1) * d] += eta * np.outer(ds.X[i], ds.X[i])
    return np.eye(n * d) - Q


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
        with pytest.raises(GraphConnectError):
            make_graph("erdos_renyi", 30, seed=0, p=1e-6)

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
        g = make_graph(kind, n, seed=data.draw(st.integers(0, 2**16)), **kw)
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
                                         ("erdos_renyi", {"p": 0.5})])
    def test_rows_sum_to_zero(self, kind, kw):
        g = make_graph(kind, 8, seed=2, **kw)
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

    def test_interpolating_consensus_is_exact_fixed_point(self):
        ds = gen_dataset(5, 8, "gaussian", seed=40)
        g = make_graph("ring", 5)
        W = np.tile(ds.w_star, (5, 1))
        W_next = dgd_step(ds, incidence(g), 0.3, 0.1, W)
        assert np.array_equal(W_next, W)
        [tr] = run_dgd(ds, g, [0.3], [0.1], max_iters=5, W0=W)
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
        A = dense_round_operator(ds, g, 0.05, 8.0)
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

    def test_trace_rows_match_single_state_metrics_bitwise(self):
        # rows measured a block at a time equal the per-state formulas on
        # each recorded state, and the K = 1 stack, bit for bit
        ds = gen_dataset(6, 9, "gaussian", seed=54)
        g = make_graph("ring", 6)
        B = incidence(g)
        mu = 0.1
        W0 = np.random.default_rng(55).standard_normal((6, 9))
        [tr] = run_dgd(ds, g, [0.3], [mu], max_iters=_BLOCK + 40, W0=W0,
                       record_states=True)
        assert len(tr.states) == len(tr.t) == _BLOCK + 41
        assert np.array_equal(tr.W_final, tr.states[-1])
        for t, W in enumerate(tr.states):
            comp = (W - ds.w_star) @ ds.spectral.basis
            diffs = B @ W
            Wc = W - W.mean(axis=0)
            sq = np.sum(Wc * Wc, axis=1)
            d2 = sq[:, None] + sq[None, :] - 2.0 * (Wc @ Wc.T)
            resid = np.sum(ds.X * W, axis=1) - ds.y
            row = (float(np.sum(comp * comp, axis=1).mean()),
                   float(np.linalg.norm(diffs, axis=1).max()),
                   float(np.sqrt(max(float(d2.max()), 0.0))),
                   float(resid @ resid + mu * np.sum(diffs * diffs)))
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
    g = make_graph(gkind, n, seed=draw(st.integers(0, 2**16)),
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


def one_point_loop(ds, g, eta, mu, max_iters, stop_tol, W0):
    """One point's run as a plain loop of 2-D rounds, each state measured
    alone: its rows, status, final state and states."""
    B = incidence(g)
    W = W0
    rows = [[col[0] for col in consensus_metrics(W, ds, B, mu)]]
    states = [W]
    err0 = rows[0][0]
    if stop_tol > 0 and err0 <= stop_tol * err0:
        return rows, "converged", W, states
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iters):
            W_next = dgd_step(ds, B, eta, mu, W)
            row = [col[0] for col in consensus_metrics(W_next, ds, B, mu)]
            if not np.all(np.isfinite(row)):
                return rows, "diverged", W, states
            W = W_next
            rows.append(row)
            states.append(W)
            if stop_tol > 0 and row[0] <= stop_tol * err0:
                return rows, "converged", W, states
            if not row[0] <= DIVERGENCE_FACTOR * err0:
                return rows, "diverged", W, states
    return rows, "max-iters", W, states


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
        traces = run_dgd(ds, g, etas, mus, max_iters=max_iters, stop_tol=stop_tol, W0=W0,
                         record_states=True)
        assert len(traces) == len(etas)
        for tr, eta, mu in zip(traces, etas, mus):
            rows, status, W_final, states = one_point_loop(ds, g, eta, mu, max_iters,
                                                           stop_tol, W0)
            cols = np.array(rows).T
            assert np.array_equal(tr.t, np.arange(len(rows)))
            for got, want in zip((tr.mean_err_sq_range, tr.edge_spread, tr.global_spread,
                                  tr.penalized_loss), cols):
                assert np.array_equal(got, want)
            assert tr.status == status
            assert np.array_equal(tr.W_final, W_final)
            assert np.array_equal(tr.states, np.array(states))

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
        A = dense_round_operator(ds, g, 0.2, 0.5)
        delta = np.linalg.matrix_power(A, T) @ (W0 - ds.w_star).reshape(-1)
        assert np.allclose(tr.W_final - ds.w_star, delta.reshape(4, 6),
                           rtol=1e-8, atol=1e-12)

    def test_shared_null_component_preserved(self):
        ds = gen_dataset(4, 8, "gaussian", seed=72)
        rp = ds.spectral
        rng = np.random.default_rng(73)
        u = rp.residual(rng.standard_normal(8))
        u /= np.linalg.norm(u)
        w0 = ds.w_star + rp.project(rng.standard_normal(8)) + u
        g = make_graph("ring", 4)
        [tr] = run_dgd(ds, g, [0.3], [0.1], max_iters=100,
                       W0=np.tile(w0, (4, 1)), record_states=True)
        comps = (tr.states - ds.w_star) @ u  # (T+1, n)
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
            a, b = default_fit_window(tr.mean_err_sq_range)
            fit = estimate_rate(tr.mean_err_sq_range, (max(b // 2, 5), b))
            r_hat = np.sqrt(fit.rate)
            assert 1.0 - eta * lam_min - 0.02 <= r_hat < 1.0
            assert abs(r_hat - sp.rate_spectral) <= 0.01 * sp.rate_spectral
