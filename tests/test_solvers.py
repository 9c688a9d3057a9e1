"""Tests for the sequential solvers, ensembles, and rate estimation."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gdlab import solvers
from gdlab.problem import (
    Dataset,
    dataset_from_rows,
    gen_dataset,
    hessian,
)
from gdlab.solvers import (
    _BLOCK,
    SolverConfig,
    _drive,
    default_fit_window,
    derive_seed,
    estimate_rate,
    run_ensemble,
    run_gd,
    run_sgd,
)
from gdlab.theory import optimal_rate


def planted_1d(x, w_star):
    X = np.array([[float(x)]])
    return Dataset(X=X, y=np.array([float(x * w_star)]),
                   w_star=np.array([float(w_star)]), kind="custom", seed=0)


class TestRunGd:
    def test_single_exact_step(self):
        # x = 2, w* = 3: H = 4 and eta = 0.25 zeroes the error in one step
        ds = planted_1d(2.0, 3.0)
        tr = run_gd(ds, SolverConfig(eta=0.25, m=1, max_iters=10, stop_tol=1e-30))
        assert tr.status == "converged"
        assert tr.err_sq_range[0] == pytest.approx(9.0, abs=1e-12)
        assert tr.err_sq_range[1] == 0.0

    def test_zero_step_size_rejected(self):
        # eta = 0 leaves every iterate where it started: there is no rate to measure
        ds = gen_dataset(4, 4, "gaussian", seed=5)
        with pytest.raises(ValueError, match="positive and finite"):
            run_gd(ds, SolverConfig(eta=0.0, m=4, max_iters=20))

    def test_orthonormal_contraction_ratio(self):
        # all eigenvalues are 1/8, so eta = 4 contracts squared error by
        # (1 - 0.5)^2 every iteration; cross-check against dense powers
        ds = gen_dataset(8, 8, "orthonormal", seed=3)
        tr = run_gd(ds, SolverConfig(eta=4.0, m=8, max_iters=15))
        ratios = tr.err_sq_range[1:] / tr.err_sq_range[:-1]
        assert np.allclose(ratios, 0.25, atol=1e-10)
        H = hessian(ds)
        A = np.eye(8) - 4.0 * H
        delta = -ds.w_star.copy()
        for t in range(1, 6):
            delta = A @ delta
            assert np.isclose(tr.err_sq_range[t], delta @ delta, rtol=1e-10)

    def test_divergence_recorded_not_raised(self):
        ds = gen_dataset(8, 8, "orthonormal", seed=3)  # lambda_max = 1/8
        tr = run_gd(ds, SolverConfig(eta=64.0, m=8, max_iters=100))
        assert tr.status == "diverged"

    def test_overflow_ends_at_last_finite_row(self):
        ds = gen_dataset(8, 8, "orthonormal", seed=3)
        tr = run_gd(ds, SolverConfig(eta=1e200, m=8, max_iters=100))
        assert tr.status == "diverged"
        assert len(tr.t) == 1
        assert np.all(np.isfinite(tr.err_sq_range)) and np.all(np.isfinite(tr.loss))
        assert np.all(np.isfinite(tr.w_final))

    @pytest.mark.parametrize("eta", [float("nan"), float("inf")])
    def test_non_finite_eta_rejected(self, eta):
        ds = gen_dataset(4, 4, "gaussian", seed=1)
        with pytest.raises(ValueError, match="finite"):
            run_sgd(ds, SolverConfig(eta=eta, m=2.0, sampler="bernoulli", stop_tol=1e-10))

    def test_nan_error_counts_as_diverged(self):
        # a NaN error fails every comparison; it must stop the loop, not run on
        def step(x, members):
            return (np.where(x[0] < 4.0, x[0] * 2.0, np.nan),)

        def metrics(xs):
            return (np.concatenate([x[0] for x in xs]),)

        cols, lengths, statuses, final, _ = _drive(
            (np.array([1.0]),), step, metrics, 100, 0.0, False)
        assert statuses == ["diverged"]
        assert list(cols[0][0, :lengths[0]]) == [1.0, 2.0, 4.0] and final[0] == 4.0

    def test_batch_sizes_full(self):
        ds = gen_dataset(5, 5, "gaussian", seed=1)
        tr = run_gd(ds, SolverConfig(eta=0.1, m=5, max_iters=7))
        assert np.all(tr.batch_size[1:] == 5)
        assert tr.batch_size[0] == 0

    def test_sampler_mismatch(self):
        ds = gen_dataset(4, 4, "gaussian", seed=1)
        with pytest.raises(ValueError):
            run_gd(ds, SolverConfig(eta=0.1, m=4, sampler="bernoulli"))
        with pytest.raises(ValueError):
            run_sgd(ds, SolverConfig(eta=0.1, m=4, sampler="full"))


class TestBlockDriver:
    """The driver steps one state at a time and measures a block of states at
    once; a stop anywhere in a block must give what a state-by-state loop
    gives."""

    @staticmethod
    def drive(stop_kind, stop_at, max_iters=3 * _BLOCK, stop_tol=0.5):
        # the state is the step count; every row reads (err, aux) = (1, 0)
        # except the stop row, which converges, diverges or holds an inf
        steps = []

        def step(x, members):
            steps.append(x[0] + 1)
            return (x[0] + 1,)

        def metrics(xs):
            t = np.concatenate([x[0] for x in xs])
            err = np.ones(len(t))
            aux = np.zeros(len(t))
            at = t == stop_at
            if stop_kind == "converged":
                err[at] = 0.25
            elif stop_kind == "diverged":
                err[at] = 1e13
            elif stop_kind == "non-finite":
                aux[at] = np.inf
            return err, aux

        cols, lengths, statuses, final, kept = _drive(
            (np.array([0]),), step, metrics, max_iters, stop_tol, True)
        return [c[0] for c in cols], statuses[0], final[0], list(kept[0]), steps

    @pytest.mark.parametrize("stop_at", [1, _BLOCK, _BLOCK + 1])
    @pytest.mark.parametrize("stop_kind", ["converged", "diverged", "non-finite"])
    def test_stop_positions(self, stop_kind, stop_at):
        cols, status, x, states, steps = self.drive(stop_kind, stop_at)
        # a non-finite row is not recorded; converged and diverged rows are
        last = stop_at - 1 if stop_kind == "non-finite" else stop_at
        assert status == ("converged" if stop_kind == "converged" else "diverged")
        assert x == last
        assert states == list(range(last + 1))
        assert [len(c) for c in cols] == [last + 1, last + 1]
        assert np.all(np.isfinite(cols[1]))
        # steps past the stop row are taken only to the end of its block
        assert len(steps) == -(-stop_at // _BLOCK) * _BLOCK

    @pytest.mark.parametrize("max_iters", [1, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 3])
    def test_round_cap(self, max_iters):
        cols, status, x, states, steps = self.drive(None, None, max_iters=max_iters)
        assert status == "max-iters"
        assert x == max_iters and len(steps) == max_iters
        assert list(cols[0]) == [1.0] * (max_iters + 1)
        assert states == list(range(max_iters + 1))

    def test_converged_initial_state_takes_no_step(self):
        cols, status, x, states, steps = self.drive("converged", 0, stop_tol=1.0)
        assert status == "converged" and x == 0 and steps == []
        assert [len(c) for c in cols] == [1, 1]

    @staticmethod
    def drive_members(stops, max_iters=3 * _BLOCK, stop_tol=0.5):
        # member k's state is (step count, k); its rows read (1, 0) except at
        # stops[k] = (kind, row), as in drive(); also returns the number of
        # row-states in each metrics call after the first
        sizes = []
        runs = len(stops)
        kinds = np.array([str(kind) for kind, _ in stops])
        rows = np.array([-1 if at is None else at for _, at in stops])

        def step(x, members):
            assert np.array_equal(x[1], members)
            return x[0] + 1, x[1]

        def metrics(xs):
            t = np.concatenate([x[0] for x in xs])
            k = np.concatenate([x[1] for x in xs])
            sizes.append(len(t))
            at = t == rows[k]
            err = np.where(at & (kinds[k] == "converged"), 0.25, 1.0)
            err[at & (kinds[k] == "diverged")] = 1e13
            aux = np.where(at & (kinds[k] == "non-finite"), np.inf, 0.0)
            return err, aux

        x0 = (np.zeros(runs, dtype=int), np.arange(runs))
        return _drive(x0, step, metrics, max_iters, stop_tol, True), sizes[1:]

    def test_members_stop_independently(self):
        # six members step _BLOCK // 6 rows per block; three stop in the first
        # block, at its first and last rows, and the other three step
        # _BLOCK // 3 rows per block; two of them stop at the first and last
        # rows of the second block and one never stops (the round cap).  Each
        # member's rows, status, final state and recorded states are those it
        # gets alone
        b1, b2 = _BLOCK // 6, _BLOCK // 3
        stops = [("converged", 1), ("diverged", b1), ("non-finite", b1 + 1), (None, None),
                 ("non-finite", 1), ("converged", b1 + b2)]
        (cols, lengths, statuses, final, kept), sizes = self.drive_members(stops)
        assert sizes[:2] == [6 * b1, 3 * b2]
        for k, (kind, at) in enumerate(stops):
            alone = self.drive(kind, at)
            L = lengths[k]
            assert [list(col[k, :L]) for col in cols] == [list(col) for col in alone[0]]
            assert statuses[k] == alone[1]
            assert final[k] == alone[2]
            assert list(kept[k, :L]) == alone[3]

    @pytest.mark.parametrize("runs", [1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1000])
    def test_block_holds_at_most_block_row_states(self, runs):
        # each metrics call measures max(1, _BLOCK // A) steps of the A running
        # members; one member keeps blocks of _BLOCK states
        (cols, lengths, statuses, _, _), sizes = self.drive_members(
            [(None, None)] * runs, max_iters=2 * _BLOCK + 3)
        per = max(1, _BLOCK // runs)
        assert sizes[:-1] == [per * runs] * (len(sizes) - 1)
        assert max(sizes) <= max(_BLOCK, runs)
        assert statuses == ["max-iters"] * runs
        assert np.all(lengths == 2 * _BLOCK + 4)

    def test_rows_match_single_state_metrics_bitwise(self):
        # each trace row equals the per-state products of the recorded iterate
        ds = gen_dataset(6, 9, "gaussian", seed=14)
        for sampler, m in (("full", 6.0), ("bernoulli", 2.5), ("fixed", 3.0)):
            cfg = SolverConfig(eta=0.7, m=m, sampler=sampler, max_iters=_BLOCK + 40,
                               seed=15, record_iterates=True)
            tr = run_gd(ds, cfg) if sampler == "full" else run_sgd(ds, cfg)
            assert len(tr.iterates) == len(tr.t) == _BLOCK + 41
            assert np.array_equal(tr.w_final, tr.iterates[-1])
            for w, err, loss in zip(tr.iterates, tr.err_sq_range, tr.loss):
                comp = (w - ds.w_star) @ ds.spectral.basis
                r = ds.X @ w - ds.y
                assert err == float(comp @ comp)
                assert loss == float(r @ r) / ds.n


class TestRunSgd:
    def test_full_mean_batch_is_bitwise_gd(self):
        ds = gen_dataset(8, 8, "gaussian", seed=13)
        gd = run_gd(ds, SolverConfig(eta=0.6, m=8, sampler="full", max_iters=25))
        sgd = run_sgd(ds, SolverConfig(eta=0.6, m=8, sampler="bernoulli", max_iters=25, seed=99))
        assert np.array_equal(gd.err_sq_range, sgd.err_sq_range)
        assert np.array_equal(gd.loss, sgd.loss)
        assert np.array_equal(gd.w_final, sgd.w_final)
        assert np.all(sgd.batch_size[1:] == 8)

    def test_two_outcome_expected_decay(self):
        # one unit sample at eta = m = 1/2: each draw is a no-op or an exact
        # solve with probability 1/2, so the mean squared error is err0 / 2^t
        ds = planted_1d(1.0, 1.7)
        cfg = SolverConfig(eta=0.5, m=0.5, sampler="bernoulli", max_iters=6, seed=21)
        ens = run_ensemble(ds, cfg, runs=4000)
        stack = np.stack([tr.err_sq_range for tr in ens.traces])
        err0 = stack[0, 0]
        for t in range(1, 7):
            expect = err0 * 0.5 ** t
            se = stack[:, t].std(ddof=1) / np.sqrt(stack.shape[0])
            assert abs(ens.mean_curve[t] - expect) <= 4 * se

    def test_orthonormal_mean_contraction(self):
        # mean squared-error ratio per iteration approaches 1 - m/n
        ds = gen_dataset(32, 32, "orthonormal", seed=320)
        cfg = SolverConfig(eta=8.0, m=8.0, sampler="bernoulli", max_iters=12, seed=7)
        ens = run_ensemble(ds, cfg, runs=500)
        ratios = ens.mean_curve[1:] / ens.mean_curve[:-1]
        assert np.all(np.abs(ratios - 0.75) <= 0.05)

    def test_fixed_sampler_batch_sizes(self):
        ds = gen_dataset(6, 6, "gaussian", seed=2)
        tr = run_sgd(ds, SolverConfig(eta=0.3, m=2.4, sampler="fixed", max_iters=30, seed=4))
        assert np.all(tr.batch_size[1:] == 2)

    def test_empty_bernoulli_draw_is_noop(self):
        ds = gen_dataset(2, 4, "gaussian", seed=8)
        tr = run_sgd(ds, SolverConfig(eta=0.5, m=0.02, sampler="bernoulli",
                                      max_iters=50, seed=3))
        empty = tr.batch_size[1:] == 0
        assert empty.any()
        same = tr.err_sq_range[1:][empty] == tr.err_sq_range[:-1][empty]
        assert same.all()


class TestRunEnsemble:
    def test_single_run_mean_is_the_trace(self):
        ds = gen_dataset(4, 4, "gaussian", seed=3)
        cfg = SolverConfig(eta=0.2, m=2, sampler="bernoulli", max_iters=10, seed=5)
        ens = run_ensemble(ds, cfg, runs=1)
        assert np.array_equal(ens.mean_curve, ens.traces[0].err_sq_range)

    def test_deterministic_sampler_gives_identical_runs(self):
        ds = gen_dataset(4, 4, "gaussian", seed=3)
        cfg = SolverConfig(eta=0.2, m=4, sampler="full", max_iters=10, seed=5)
        ens = run_ensemble(ds, cfg, runs=3)
        for tr in ens.traces[1:]:
            assert np.array_equal(tr.err_sq_range, ens.traces[0].err_sq_range)
        assert np.array_equal(ens.mean_curve, ens.traces[0].err_sq_range)

    def test_mean_matches_closed_form(self):
        # eta = m = 2 on 8 orthonormal samples contracts the mean squared
        # error by exactly 3/4 per iteration
        ds = gen_dataset(8, 8, "orthonormal", seed=9)
        cfg = SolverConfig(eta=2.0, m=2.0, sampler="bernoulli", max_iters=8, seed=31)
        ens = run_ensemble(ds, cfg, runs=2000)
        stack = np.stack([tr.err_sq_range for tr in ens.traces])
        for t in range(1, 9):
            expect = ens.mean_curve[0] * 0.75 ** t
            se = stack[:, t].std(ddof=1) / np.sqrt(stack.shape[0])
            assert abs(ens.mean_curve[t] - expect) <= 3 * se

    def test_run_seeds_derived_from_master(self):
        ds = gen_dataset(4, 4, "gaussian", seed=3)
        cfg = SolverConfig(eta=0.2, m=2, sampler="bernoulli", max_iters=5, seed=77)
        a = run_ensemble(ds, cfg, runs=4)
        b = run_ensemble(ds, cfg, runs=4)
        assert np.array_equal(a.mean_curve, b.mean_curve)
        seeds = [tr.config.seed for tr in a.traces]
        assert len(set(seeds)) == 4


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def assert_members_are_single_runs(ds, cfg, runs, seed, draw_bytes):
    """Member k of the stacked ensemble, drawing at most draw_bytes of sample
    draws ahead, is bitwise run_sgd with seed derive_seed(seed, k), and the
    mean and its standard error are those of the member traces."""
    with mock.patch.object(solvers, "_DRAW_BYTES", draw_bytes):
        ens = run_ensemble(ds, replace(cfg, seed=seed), runs=runs)
    for k, tr in enumerate(ens.traces):
        alone = run_sgd(ds, replace(cfg, seed=derive_seed(seed, k)))
        for name in ("t", "err_sq_range", "loss", "batch_size", "w_final", "iterates"):
            a, b = getattr(tr, name), getattr(alone, name)
            if b is None:
                assert a is None
            else:
                assert a.dtype == b.dtype and a.shape == b.shape and bits(a) == bits(b), name
        assert tr.status == alone.status
        assert tr.config.seed == alone.config.seed
    length = min(len(tr.t) for tr in ens.traces)
    stack = np.stack([tr.err_sq_range[:length] for tr in ens.traces])
    mean = stack.mean(axis=0)
    assert bits(ens.mean_curve) == bits(mean)
    stack -= mean
    sd = np.sqrt(np.einsum("ij,ij->j", stack, stack) / max(len(stack) - 1, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        assert bits(ens.rel_se) == bits(sd / (mean * np.sqrt(len(stack))))
    return ens


_PROPERTY_DATASETS = (
    gen_dataset(8, 8, "orthonormal", seed=3),
    gen_dataset(6, 4, "gaussian", normalize=True, seed=5),
    gen_dataset(5, 7, "gaussian", seed=2),
)


class TestStackedEnsemble:
    """run_ensemble advances its members as one stack; each member must be
    the run it would be alone, bit for bit."""

    # 1000 bytes of draws ahead: a few iterations per refill, more as members stop

    @pytest.mark.parametrize("sampler", ["bernoulli", "fixed"])
    def test_members_converge_at_different_iterations(self, sampler):
        ds = gen_dataset(32, 32, "orthonormal", seed=320)
        cfg = SolverConfig(eta=2.0, m=2.0, sampler=sampler, max_iters=300, stop_tol=1e-10,
                           record_iterates=True)
        ens = assert_members_are_single_runs(ds, cfg, 12, 3, 1000)
        assert {tr.status for tr in ens.traces} == {"converged"}
        assert len({len(tr.t) for tr in ens.traces}) > 1

    @pytest.mark.parametrize("sampler", ["bernoulli", "fixed"])
    def test_some_members_diverge(self, sampler):
        # eta = 5, m = 2 on orthonormal rows: about one run in eight diverges
        ds = gen_dataset(32, 32, "orthonormal", seed=320)
        w0 = np.random.default_rng(1).standard_normal(32)
        cfg = SolverConfig(eta=5.0, m=2.0, sampler=sampler, max_iters=400, stop_tol=1e-8,
                           w0=w0, record_iterates=True)
        ens = assert_members_are_single_runs(ds, cfg, 30, 3, 1000)
        assert {tr.status for tr in ens.traces} == {"diverged", "max-iters"}

    @settings(max_examples=150, deadline=None)
    @given(runs=st.integers(1, 8), iters=st.integers(1, 40),
           ds_index=st.integers(0, len(_PROPERTY_DATASETS) - 1),
           m_frac=st.floats(0.05, 1.0), sampler=st.sampled_from(["bernoulli", "fixed"]),
           stop_tol=st.sampled_from([0.0, 0.9, 0.5, 1e-2, 1e-6]),
           eta_per_m=st.integers(1, 50).map(lambda i: i / 10),
           seed=st.integers(0, 2**32 - 1), draw_bytes=st.sampled_from([1, 100, 1 << 20]))
    def test_members_are_single_runs(self, runs, iters, ds_index, m_frac, sampler,
                                     stop_tol, eta_per_m, seed, draw_bytes):
        ds = _PROPERTY_DATASETS[ds_index]
        m = m_frac * ds.n
        cfg = SolverConfig(eta=eta_per_m * m, m=m, sampler=sampler, max_iters=iters,
                           stop_tol=stop_tol, record_iterates=True)
        ens = assert_members_are_single_runs(ds, cfg, runs, seed, draw_bytes)
        for status in {tr.status for tr in ens.traces}:
            event(status)


class TestEstimateRate:
    def test_exact_geometric_decay(self):
        fit = estimate_rate([1.0, 0.5, 0.25, 0.125])
        assert fit.rate == pytest.approx(0.5, rel=1e-12)
        assert fit.residual <= 1e-12

    def test_constant_curve_does_not_contract(self):
        fit = estimate_rate([2.0, 2.0, 2.0, 2.0])
        assert fit.rate == pytest.approx(1.0, abs=1e-12)

    def test_gd_rate_matches_condition_number_prediction(self):
        # two-level spectrum: the fit recovers the predicted full-batch rate
        rng = np.random.default_rng(44)
        Q, R = np.linalg.qr(rng.standard_normal((8, 8)))
        Q = Q * np.sign(np.diag(R))
        X = Q * np.sqrt(8 * np.array([1.0] * 4 + [0.25] * 4))
        ds = dataset_from_rows(X, seed=45)
        pred = optimal_rate(8, 8, 1.0, 0.25)
        tr = run_gd(ds, SolverConfig(eta=pred.eta_opt, m=8, max_iters=40))
        window = default_fit_window(tr.err_sq_range)
        fit = estimate_rate(tr.err_sq_range, window)
        assert abs(fit.rate - pred.g_opt) <= 0.01 * pred.g_opt

    def test_window_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            estimate_rate([1.0, 0.5], (0, 2))
        with pytest.raises(ValueError, match="nonpositive"):
            estimate_rate([1.0, 0.0, 0.25, 0.1])

    def test_default_window_skips_transient_and_floor(self):
        curve = [1.0] + [0.5 ** t for t in range(1, 30)] + [1e-300] * 5
        start, end = default_fit_window(curve)
        assert start == 5
        assert end <= 30
        seg = np.asarray(curve[start:end])
        assert np.all(seg >= 1e-12)


class TestSolverInvariants:
    def _null_setup(self):
        ds = gen_dataset(4, 8, "gaussian", seed=60)
        rp = ds.spectral
        rng = np.random.default_rng(61)
        u = rp.residual(rng.standard_normal(8))
        u /= np.linalg.norm(u)
        w0 = ds.w_star + rp.project(rng.standard_normal(8)) + u
        return ds, rp, u, w0

    @pytest.mark.parametrize("sampler", ["full", "bernoulli"])
    def test_null_component_is_invariant(self, sampler):
        ds, rp, u, w0 = self._null_setup()
        cfg = SolverConfig(eta=0.4, m=2.0 if sampler == "bernoulli" else 4.0,
                           sampler=sampler, max_iters=100, seed=5, w0=w0,
                           record_iterates=True)
        tr = run_gd(ds, cfg) if sampler == "full" else run_sgd(ds, cfg)
        comps = (tr.iterates - ds.w_star) @ u
        assert np.max(np.abs(comps - comps[0])) <= 1e-12 * abs(comps[0])

    def test_loss_equals_quadratic_error_form(self):
        ds = gen_dataset(6, 6, "gaussian", seed=7)
        H = hessian(ds)
        cfg = SolverConfig(eta=0.5, m=3, sampler="bernoulli", max_iters=30,
                           seed=8, record_iterates=True)
        tr = run_sgd(ds, cfg)
        for w, loss in zip(tr.iterates, tr.loss):
            delta = w - ds.w_star
            quad = delta @ H @ delta
            assert abs(loss - quad) <= 1e-10 * max(quad, 1e-30)

    def test_gd_error_strictly_decreases(self):
        ds = gen_dataset(6, 6, "gaussian", normalize=True, seed=19)
        lam1 = np.linalg.eigvalsh(hessian(ds))[-1]
        tr = run_gd(ds, SolverConfig(eta=0.8 / lam1, m=6, max_iters=50))
        assert np.all(np.diff(tr.err_sq_range) < 0)

    def test_bit_identical_reruns(self):
        ds = gen_dataset(5, 5, "gaussian", seed=2)
        cfg = SolverConfig(eta=0.3, m=2, sampler="bernoulli", max_iters=40, seed=17)
        a, b = run_sgd(ds, cfg), run_sgd(ds, cfg)
        assert np.array_equal(a.err_sq_range, b.err_sq_range)
        assert np.array_equal(a.batch_size, b.batch_size)
        assert np.array_equal(a.w_final, b.w_final)

    def test_bernoulli_batch_statistics(self):
        n, m, T = 16, 4.0, 2000
        ds = gen_dataset(n, n, "gaussian", seed=30)
        tr = run_sgd(ds, SolverConfig(eta=0.01, m=m, sampler="bernoulli",
                                      max_iters=T, seed=55))
        mean_batch = tr.batch_size[1:].mean()
        tol = 4 * np.sqrt(n * (m / n) * (1 - m / n) / T)
        assert abs(mean_batch - m) <= tol
