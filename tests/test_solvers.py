"""Tests for the sequential solvers, ensembles, and rate estimation."""

import tracemalloc
from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from oracles import plain_gd, plain_sgd, prefix_iterates, prefix_states, range_split

from gdlab import distributed, solvers
from gdlab.distributed import make_graph, run_dgd
from gdlab.presets import build_dataset
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
    derive_seed,
    fit_rate,
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
        def step(x, members, out):
            out[0][:] = np.where(x[0] < 4.0, x[0] * 2.0, np.nan)

        def metrics(block, members):
            return (block[0],)

        cols, lengths, statuses, final = _drive((np.array(1.0),), 1, step, metrics, 100, 0.0)
        assert statuses == ["diverged"]
        assert list(cols[0][0, :lengths[0]]) == [1.0, 2.0, 4.0] and final[0] == 4.0

    def test_batch_sizes_full(self):
        ds = gen_dataset(5, 5, "gaussian", seed=1)
        tr = run_gd(ds, SolverConfig(eta=0.1, m=5, max_iters=7))
        assert np.all(tr.batch_size[1:] == 5)
        assert tr.batch_size[0] == 0

    def test_config_is_validated_as_given(self):
        # GD runs at m = n, but an m no update could take is still refused
        ds = gen_dataset(4, 4, "gaussian", seed=1)
        with pytest.raises(ValueError, match="mean batch size"):
            run_gd(ds, SolverConfig(eta=0.1, m=0.0))

    def test_sampler_mismatch(self):
        # GD is the Bernoulli step at m = n; there is no "full" sampler
        ds = gen_dataset(4, 4, "gaussian", seed=1)
        with pytest.raises(ValueError):
            run_gd(ds, SolverConfig(eta=0.1, m=4, sampler="fixed"))
        with pytest.raises(ValueError, match="sampler"):
            run_sgd(ds, SolverConfig(eta=0.1, m=4, sampler="full"))


class TestBlockDriver:
    """The driver steps one state at a time and measures a block of states at
    once; a stop anywhere in a block must give what a state-by-state loop
    gives."""

    @staticmethod
    def drive(stop_kind, stop_at, max_iters=3 * _BLOCK, stop_tol=0.5):
        # the state is the step count, recorded as a third column; every row
        # reads (err, aux) = (1, 0) except the stop row, which converges,
        # diverges or holds an inf
        steps = []

        def step(x, members, out):
            steps.append(x[0] + 1)
            out[0][:] = x[0] + 1

        def metrics(block, members):
            t = block[0]
            err = np.ones(len(t))
            aux = np.zeros(len(t))
            at = t == stop_at
            if stop_kind == "converged":
                err[at] = 0.25
            elif stop_kind == "diverged":
                err[at] = 1e13
            elif stop_kind == "non-finite":
                aux[at] = np.inf
            return err, aux, t

        (*cols, states), lengths, statuses, final = _drive(
            (np.array(0),), 1, step, metrics, max_iters, stop_tol)
        return [c[0] for c in cols], statuses[0], final[0], list(states[0]), steps

    # stops at the first and second block boundaries, and one row past each
    @pytest.mark.parametrize("stop_at", [1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1])
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

    @pytest.mark.parametrize("max_iters", [1, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK,
                                           2 * _BLOCK + 3, 4 * _BLOCK + 3])
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
        # member k's state is (step count, k), k set by its first step (every
        # member starts from the one state (0, 0)); its rows read (1, 0)
        # except at stops[k] = (kind, row), as in drive(), and record the
        # step count; also returns the number of row-states in each metrics
        # call after the first
        sizes = []
        runs = len(stops)
        kinds = np.array([str(kind) for kind, _ in stops])
        rows = np.array([-1 if at is None else at for _, at in stops])

        def step(x, members, out):
            assert not x[0].any() or np.array_equal(x[1], members)
            out[0][:] = x[0] + 1
            out[1][:] = members

        def metrics(block, k):
            t = block[0]
            sizes.append(len(t))
            at = t == rows[k]
            err = np.where(at & (kinds[k] == "converged"), 0.25, 1.0)
            err[at & (kinds[k] == "diverged")] = 1e13
            aux = np.where(at & (kinds[k] == "non-finite"), np.inf, 0.0)
            return err, aux, t

        x0 = (np.array(0), np.array(0))
        return _drive(x0, runs, step, metrics, max_iters, stop_tol), sizes[1:]

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
        ((*cols, kept), lengths, statuses, final), sizes = self.drive_members(stops)
        assert sizes[:2] == [6 * b1, 3 * b2]
        for k, (kind, at) in enumerate(stops):
            alone = self.drive(kind, at)
            L = lengths[k]
            assert [list(col[k, :L]) for col in cols] == [list(col) for col in alone[0]]
            assert statuses[k] == alone[1]
            assert final[k] == alone[2]
            assert list(kept[k, :L]) == alone[3]

    def test_members_stop_inside_one_step_blocks(self):
        # 3 _BLOCK members, more than _BLOCK // 2 of them running to the
        # end, so every block is one step and holds only its entry state and
        # one new one: a non-finite stop is then the first row of its block
        # and leaves the entry state final.  Members stop at varied rows by
        # each kind or run to the cap, and each gets what it gets alone
        kinds = ["converged", "diverged", "non-finite", None]
        stops = [(kinds[k % 4], None if k % 4 == 3 else 1 + 7 * k % 45)
                 for k in range(3 * _BLOCK)]
        ((*cols, kept), lengths, statuses, final), sizes = self.drive_members(stops, max_iters=50)
        assert len(sizes) == 50  # one metrics call per step
        assert statuses.count("max-iters") > _BLOCK // 2
        for k, (kind, at) in enumerate(stops):
            alone = self.drive(kind, at, max_iters=50)
            L = lengths[k]
            assert [list(col[k, :L]) for col in cols] == [list(col) for col in alone[0]]
            assert statuses[k] == alone[1]
            assert final[k] == alone[2]
            assert list(kept[k, :L]) == alone[3]

    @staticmethod
    def drive_rising(stops, keep_states):
        # member k's state is its step count t; its rows read (1 + t, t / 2),
        # so a row copied to the wrong place shows, but row stops[k], where
        # the member converges (None: it never does); keep_states records t
        # as a third column
        at = np.array([-1 if row is None else row for row in stops])

        def step(x, members, out):
            out[0][:] = x[0] + 1

        def metrics(block, members):
            t = block[0]
            err = np.where(t == at[members], 0.25, 1.0 + t)
            return (err, t / 2.0) + ((t,) if keep_states else ())

        return _drive((np.array(0),), len(stops), step, metrics, 4 * _BLOCK, 0.5)

    @pytest.mark.parametrize("keep_states", [True, False])
    def test_widening_keeps_each_members_rows(self, monkeypatch, keep_states):
        # a widening copies only the rows each member recorded.  Member 0
        # stops in the first block, member 1 between the first and second
        # widening, member 2 runs to the round cap through every widening;
        # each member's rows, states, status and final state are bitwise
        # those it gets alone
        seen = []  # the row counts at each widening of a buffer

        def widen(a, cap, lengths):
            seen.append(lengths.copy())
            return widen_rows(a, cap, lengths)

        widen_rows = solvers._widen
        monkeypatch.setattr(solvers, "_widen", widen)
        stops = [1, 3 * _BLOCK // 2, None]
        cols, lengths, statuses, final = self.drive_rising(stops, keep_states)
        # one entry per widening (the buffers start at one row each)
        growths = list({int(c.max()): c for c in seen if c.max() > 1}.values())
        assert len(growths) >= 2
        assert growths[0].tolist() == [2, growths[0][1], growths[0][1]]
        assert growths[0][1] < stops[1] + 1 == growths[1][1] < growths[1][2]
        assert statuses == ["converged", "converged", "max-iters"]
        assert lengths.tolist() == [2, stops[1] + 1, 4 * _BLOCK + 1]
        assert len(cols) == (3 if keep_states else 2)
        for k, stop in enumerate(stops):
            a_cols, a_lengths, a_statuses, a_final = self.drive_rising([stop], keep_states)
            L = lengths[k]
            assert L == a_lengths[0]
            for col, alone in zip(cols, a_cols):
                assert np.array_equal(col[k, :L], alone[0, :L])
            assert statuses[k] == a_statuses[0]
            assert final[k] == a_final[0]

    @pytest.mark.parametrize("runs", [1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                      2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1, 1000])
    def test_block_holds_at_most_block_row_states(self, runs):
        # each metrics call measures max(1, _BLOCK // A) steps of the A running
        # members; one member keeps blocks of _BLOCK states
        (cols, lengths, statuses, _), sizes = self.drive_members(
            [(None, None)] * runs, max_iters=2 * _BLOCK + 3)
        per = max(1, _BLOCK // runs)
        assert sizes[:-1] == [per * runs] * (len(sizes) - 1)
        assert max(sizes) <= max(_BLOCK, runs)
        assert statuses == ["max-iters"] * runs
        assert np.all(lengths == 2 * _BLOCK + 4)

    def test_rows_match_single_state_metrics_bitwise(self):
        # each trace row equals the per-state products of its iterate, at the
        # block boundaries, where block metrics could misplace a row
        ds = gen_dataset(6, 9, "gaussian", seed=14)
        rows = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 40]
        for run, sampler, m in ((run_gd, "bernoulli", 6.0), (run_sgd, "bernoulli", 2.5),
                                (run_sgd, "fixed", 3.0)):
            cfg = SolverConfig(eta=0.7, m=m, sampler=sampler, max_iters=_BLOCK + 40, seed=15)
            tr = run(ds, cfg)
            assert len(tr.t) == _BLOCK + 41
            for t, w in zip(rows, prefix_iterates(run, ds, cfg, rows)):
                comp = (w - ds.w_star) @ ds.spectral.basis
                r = ds.X @ w - ds.y
                assert tr.err_sq_range[t] == float(comp @ comp)
                assert tr.loss[t] == float(r @ r) / ds.n


class TestRunSgd:
    def test_full_mean_batch_is_bitwise_gd(self):
        # run_gd is run_sgd's step, so the oracle is a plain loop without sampling
        ds = gen_dataset(8, 8, "gaussian", seed=13)
        errs, losses, w = plain_gd(ds, 0.6, 25)
        gd = run_gd(ds, SolverConfig(eta=0.6, m=1, max_iters=25))
        sgd = run_sgd(ds, SolverConfig(eta=0.6, m=8, sampler="bernoulli", max_iters=25, seed=99))
        for tr in (gd, sgd):
            assert np.array_equal(tr.err_sq_range, errs)
            assert np.array_equal(tr.loss, losses)
            assert np.array_equal(tr.w_final, w)
            assert np.all(tr.batch_size[1:] == 8)

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

    @pytest.mark.parametrize("sampler", ["bernoulli", "fixed"])
    @pytest.mark.parametrize("m", [2.4, 8.0])
    def test_matches_plain_sgd(self, sampler, m):
        # both samplers step by eta/m, fixed included at a non-integer m, past
        # a block boundary; the oracle sums the batch sample by sample
        ds = gen_dataset(8, 8, "gaussian", seed=13)
        iters = _BLOCK + 40
        errs, losses, batches = plain_sgd(ds, 0.6, m, sampler, iters, seed=31)
        tr = run_sgd(ds, SolverConfig(eta=0.6, m=m, sampler=sampler, max_iters=iters, seed=31))
        assert np.array_equal(tr.batch_size, batches)
        np.testing.assert_allclose(tr.err_sq_range, errs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(tr.loss, losses, rtol=1e-12, atol=0)

    def test_fixed_sampler_batch_sizes(self):
        # many iterations of many runs, drawn a chunk at a time: every mask
        # holds exactly k = max(1, round(m)) samples, k = n included
        for n, m in ((6, 2.4), (6, 0.3), (7, 5.0), (5, 5.0)):
            ds = gen_dataset(n, 6, "gaussian", seed=2)
            ens = run_ensemble(ds, SolverConfig(eta=1e-3, m=m, sampler="fixed", max_iters=60,
                                                seed=4), runs=40)
            assert all(len(tr.t) == 61 for tr in ens.traces)
            assert all(np.all(tr.batch_size[1:] == max(1, round(m))) for tr in ens.traces)

    def test_fixed_subsets_are_uniform(self):
        # one step from zero moves w to (eta/m) sum_(i in batch) y_i x_i, and
        # gaussian8's 8 rows are independent, so each run's subset is read
        # back from its final iterate.  Over 2,800 runs the C(8, 2) = 28
        # subsets must pass a chi-square test of uniformity at the 0.1% level
        # (27 degrees of freedom); keys drawn with ties, as from
        # rng.integers(0, 4, ...), favour the low indices and fail it
        ds = build_dataset("gaussian8")
        runs, eta, m = 2800, 1.0, 2.0
        ens = run_ensemble(ds, SolverConfig(eta=eta, m=m, sampler="fixed", max_iters=1,
                                            seed=23), runs=runs)
        coef = np.linalg.solve(ds.X.T, np.array([tr.w_final for tr in ens.traces]).T).T
        drawn = np.abs(coef) > 0.5 * np.abs(eta / m * ds.y)
        assert np.all(drawn.sum(axis=1) == 2)
        subsets = {pair: i for i, pair in enumerate(combinations(range(8), 2))}
        counts = np.bincount([subsets[tuple(np.flatnonzero(row))] for row in drawn],
                             minlength=28)
        expected = runs / 28
        assert np.sum((counts - expected) ** 2 / expected) < 55.476  # chi2.ppf(0.999, 27)

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
        cfg = SolverConfig(eta=0.2, m=4, sampler="bernoulli", max_iters=10, seed=5)  # m = n
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
        seeds = [tr.seed for tr in a.traces]
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
        for name in ("t", "err_sq_range", "loss", "batch_size", "w_final"):
            a, b = getattr(tr, name), getattr(alone, name)
            assert a.dtype == b.dtype and a.shape == b.shape and bits(a) == bits(b), name
        assert tr.status == alone.status
        assert tr.seed == alone.seed
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
        cfg = SolverConfig(eta=2.0, m=2.0, sampler=sampler, max_iters=300, stop_tol=1e-10)
        ens = assert_members_are_single_runs(ds, cfg, 12, 3, 1000)
        assert {tr.status for tr in ens.traces} == {"converged"}
        assert len({len(tr.t) for tr in ens.traces}) > 1

    @pytest.mark.parametrize("sampler", ["bernoulli", "fixed"])
    def test_some_members_diverge(self, sampler):
        # eta = 5, m = 2 on orthonormal rows: about one run in eight diverges
        ds = gen_dataset(32, 32, "orthonormal", seed=320)
        w0 = np.random.default_rng(1).standard_normal(32)
        cfg = SolverConfig(eta=5.0, m=2.0, sampler=sampler, max_iters=400, stop_tol=1e-8,
                           w0=w0)
        ens = assert_members_are_single_runs(ds, cfg, 30, 3, 1000)
        assert {tr.status for tr in ens.traces} == {"diverged", "max-iters"}

    def test_ensemble_status_is_the_worst(self):
        # test_some_members_diverge's runs next to converging ones at a smaller step
        ds = gen_dataset(32, 32, "orthonormal", seed=320)
        w0 = np.random.default_rng(1).standard_normal(32)
        cfg = SolverConfig(eta=5.0, m=2.0, sampler="bernoulli", max_iters=400, stop_tol=1e-8,
                           w0=w0)
        diverging = run_ensemble(ds, cfg, 30)
        converging = run_ensemble(ds, replace(cfg, eta=3.0), 30)
        assert diverging.status == "diverged"
        assert {tr.status for tr in converging.traces} == {"converged", "max-iters"}
        assert converging.status == "max-iters"
        first = {}
        for tr in diverging.traces + converging.traces:
            first.setdefault(tr.status, tr)
        for statuses, worst in [(("converged", "diverged"), "diverged"),
                                (("diverged", "converged"), "diverged"),
                                (("converged", "max-iters"), "max-iters"),
                                (("max-iters", "diverged"), "diverged"),
                                (("converged",), "converged")]:
            ens = replace(converging, traces=[first[s] for s in statuses])
            assert ens.status == worst

    def test_ensemble_allocates_little_beyond_the_loops_arrays(self):
        # the loop's own arrays: two state buffers (w, residual, batch size),
        # three runs x 41 trace columns, the final iterates and the packed
        # draws held ahead.  Tiling the initial state for every run, and
        # run-sized temporaries in the step and the initial metrics, once
        # took the peak to 1.49 times them; one broadcast initial state, an
        # in-buffer step and metrics _BLOCK runs at a time keep it near 1.1
        ds = build_dataset("orthonormal32")
        cfg = SolverConfig(eta=8.0, m=8.0, max_iters=40, seed=1)
        runs = 1000
        run_ensemble(ds, cfg, 2)  # the dataset's cached eigensolve, made once
        tracemalloc.start()
        try:
            run_ensemble(ds, cfg, runs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, d = ds.X.shape
        width = (n + 7) // 8
        states = 2 * max(_BLOCK, runs) * (d + n + 1) * 8
        cols = 3 * runs * (cfg.max_iters + 1) * 8
        draws = runs * min(solvers._DRAW_BYTES // (runs * width), cfg.max_iters) * width
        assert peak < 1.25 * (states + cols + runs * d * 8 + draws)

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
                           stop_tol=stop_tol)
        ens = assert_members_are_single_runs(ds, cfg, runs, seed, draw_bytes)
        for status in {tr.status for tr in ens.traces}:
            event(status)


class TestPrefixProperty:
    """A run's draws depend on its seed, not on max_iters, so a t-step run is
    the first t steps of any longer run with the same inputs: its final
    iterate is the iterate the longer run's loop measures at row t.  The
    tests' iterates, prefix_iterates and prefix_states, rest on this."""

    T = _BLOCK + 40
    # across the first block boundary, and across a draw refill when
    # _DRAW_BYTES is 7: a 6-sample mask is one byte, so 7 iterations a refill
    STEPS = [0, 1, 6, 7, 8, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 40]

    @staticmethod
    def loop_iterates(module, call):
        # the iterate of every state the loop measures while call() runs
        # one run through module's _drive: rows 0..max_iters of a run that
        # does not stop
        seen = []

        def drive(x, runs, step, metrics, *limits):
            def record(block, members):
                seen.extend(w.copy() for w in block[0])
                return metrics(block, members)
            return _drive(x, runs, step, record, *limits)

        with mock.patch.object(module, "_drive", drive):
            call()
        return np.array(seen)

    @pytest.mark.parametrize("draw_bytes", [solvers._DRAW_BYTES, 7])
    @pytest.mark.parametrize("run, sampler, m", [(run_gd, "bernoulli", 6.0),
                                                 (run_sgd, "bernoulli", 2.5),
                                                 (run_sgd, "fixed", 3.0)])
    def test_solver_runs(self, run, sampler, m, draw_bytes):
        ds = gen_dataset(6, 9, "gaussian", seed=16)
        cfg = SolverConfig(eta=0.7, m=m, sampler=sampler, max_iters=self.T, seed=17)
        with mock.patch.object(solvers, "_DRAW_BYTES", draw_bytes):
            rows = self.loop_iterates(solvers, lambda: run(ds, cfg))
            assert len(rows) == self.T + 1
            assert bits(prefix_iterates(run, ds, cfg, self.STEPS)) == bits(rows[self.STEPS])

    def test_dgd_runs(self):
        ds = gen_dataset(6, 9, "gaussian", seed=16)
        g = make_graph("ring", 6)
        W0 = np.random.default_rng(17).standard_normal((6, 9))
        rows = self.loop_iterates(
            distributed, lambda: run_dgd(ds, g, [0.3], [0.1], max_iters=self.T, W0=W0))
        assert len(rows) == self.T + 1
        assert bits(prefix_states(ds, g, 0.3, 0.1, W0, self.STEPS)) == bits(rows[self.STEPS])


class TestEstimateRate:
    # fit_rate: the least-squares line through log(curve) over its window
    def test_exact_geometric_decay(self):
        fit = fit_rate(0.5 ** np.arange(12))
        assert fit.window == (5, 12)
        assert fit.rate == pytest.approx(0.5, rel=1e-12)
        assert fit.residual <= 1e-12

    def test_constant_curve_does_not_contract(self):
        fit = fit_rate([2.0] * 10)
        assert fit.rate == pytest.approx(1.0, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_gd_rate_matches_condition_number_prediction(self):
        # two-level spectrum: the fit recovers the predicted full-batch rate
        rng = np.random.default_rng(44)
        Q, R = np.linalg.qr(rng.standard_normal((8, 8)))
        Q = Q * np.sign(np.diag(R))
        X = Q * np.sqrt(8 * np.array([1.0] * 4 + [0.25] * 4))
        ds = dataset_from_rows(X, seed=45)
        pred = optimal_rate(8, 8, 1.0, 0.25)
        tr = run_gd(ds, SolverConfig(eta=pred.eta_opt, m=8, max_iters=40))
        fit = fit_rate(tr.err_sq_range)
        assert abs(fit.rate - pred.g_opt) <= 0.01 * pred.g_opt

    def test_window_validation(self):
        # fewer than 3 points, or a 0 that leaves fewer before it: no fit
        assert fit_rate([1.0, 0.5]) is None
        assert fit_rate([1.0, 0.0, 0.25, 0.1]) is None
        # a 0 ends the window, so no log of it is taken
        curve = 0.5 ** np.arange(12)
        curve[9] = 0.0
        fit = fit_rate(curve)
        assert fit.window == (5, 9)
        assert fit.rate == pytest.approx(0.5, rel=1e-12)

    def test_default_window_skips_transient_and_floor(self):
        curve = [1.0] + [0.5 ** t for t in range(1, 30)] + [1e-300] * 5
        start, end = fit_rate(curve).window
        assert start == 5
        assert end <= 30
        seg = np.asarray(curve[start:end])
        assert np.all(seg >= 1e-12)

    @pytest.mark.parametrize("length, window, tail_window", [
        (40, (5, 40), (20, 40)),  # the tail half
        (7, (4, 7), (4, 7)),      # three points left past the transient
        (3, (0, 3), None),        # the tail half of 3 points holds 2: no fit
    ])
    def test_windows(self, length, window, tail_window):
        # a tail window starts at max(end // 2, min(5, end - 3))
        curve = 0.9 ** np.arange(length)
        assert fit_rate(curve).window == window
        fit = fit_rate(curve, tail=True)
        assert (fit and fit.window) == tail_window
        if fit:
            assert fit.rate == pytest.approx(0.9, rel=1e-12)

    def test_rel_se_ends_the_window_at_the_first_noisy_point(self):
        curve = 0.5 ** np.arange(30)
        rel_se = np.zeros(30)
        rel_se[[12, 20]] = [0.06, 0.5]
        rel_se[8] = 0.05  # at the bound: not noisy
        assert fit_rate(curve, rel_se=rel_se).window == (5, 12)
        assert fit_rate(curve, tail=True, rel_se=rel_se).window == (6, 12)
        rel_se[:] = np.nan  # a zero mean: no standard error to exceed
        assert fit_rate(curve, rel_se=rel_se).window == (5, 30)

    @pytest.mark.parametrize("curve", [[], [0.0, 1.0, 0.5, 0.25], [-1.0, 0.5, 0.25],
                                       [1.0, 0.5], [1.0, 0.5, 1e-13, 1e-14],
                                       [np.nan] + [0.5 ** t for t in range(8)]])
    def test_no_window_no_fit(self, curve):
        # empty, a zero, negative or NaN start, fewer than 3 points before the floor
        assert fit_rate(curve) is None
        assert fit_rate(curve, tail=True) is None


class TestSolverInvariants:
    def _null_setup(self):
        ds = gen_dataset(4, 8, "gaussian", seed=60)
        rp = ds.spectral
        rng = np.random.default_rng(61)
        u = range_split(rp, rng.standard_normal(8))[1]
        u /= np.linalg.norm(u)
        w0 = ds.w_star + range_split(rp, rng.standard_normal(8))[0] + u
        return ds, rp, u, w0

    @pytest.mark.parametrize("batch", ["full", "bernoulli"])
    def test_null_component_is_invariant(self, batch):
        ds, rp, u, w0 = self._null_setup()
        cfg = SolverConfig(eta=0.4, m=2.0, sampler="bernoulli", seed=5, w0=w0)
        run = run_gd if batch == "full" else run_sgd
        comps = (prefix_iterates(run, ds, cfg, range(101)) - ds.w_star) @ u
        assert np.max(np.abs(comps - comps[0])) <= 1e-12 * abs(comps[0])

    def test_loss_equals_quadratic_error_form(self):
        ds = gen_dataset(6, 6, "gaussian", seed=7)
        H = hessian(ds)
        cfg = SolverConfig(eta=0.5, m=3, sampler="bernoulli", max_iters=30, seed=8)
        tr = run_sgd(ds, cfg)
        for w, loss in zip(prefix_iterates(run_sgd, ds, cfg, range(31)), tr.loss, strict=True):
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
