"""Tests for the closed-form rate formulas and their Monte-Carlo cross-checks."""

import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import mc_expected_mm

from gdlab.presets import build_dataset
from gdlab.problem import dataset_from_rows, gen_dataset, hessian
from gdlab.theory import (
    _TIE_TOL,
    cost_model,
    expected_mm,
    g_eigen,
    gm_am_factor,
    optimal_rate,
    orthogonal_rate,
)


def quad_se_bound(se_matrix, v):
    """Conservative standard error of v^T E v from entrywise standard errors."""
    av = np.abs(v)
    return float(av @ se_matrix @ av)


def lambda_max_gaps(closed, mc_est, mc_se, sigmas=3.0, slack=1e-12):
    """The two one-sided gaps between lambda_max of the closed form E and of
    its Monte-Carlo estimate, each over its tolerance, taken along vectors that
    do not depend on how rounding picks a top eigenvector of E.

    By the Rayleigh quotient, lambda_mc - lambda <= v^T (E_mc - E) v along the
    estimate's top eigenvector v, and lambda - lambda_mc <= u^T (E - E_mc) u
    for any unit u in E's top eigenspace; u is v projected onto it.
    """
    evals, vecs = np.linalg.eigh(closed)
    mc_evals, mc_vecs = np.linalg.eigh(mc_est)
    v = mc_vecs[:, -1]
    top = vecs[:, evals >= evals[-1] - 1e-12 * max(1.0, abs(evals[-1]))]
    u = top @ (top.T @ v)
    u /= np.linalg.norm(u)
    return ((mc_evals[-1] - evals[-1]) / (sigmas * quad_se_bound(mc_se, v) + slack),
            (evals[-1] - mc_evals[-1]) / (sigmas * quad_se_bound(mc_se, u) + slack))


def lambda_max_close(closed, mc_est, mc_se):
    return all(gap <= 1.0 for gap in lambda_max_gaps(closed, mc_est, mc_se))


class TestExpectedMM:
    def test_orthonormal_eigenvalues(self):
        # eta = m = 2 on 4 orthonormal samples: every eigenvalue is
        # 1 - 2*(2/4) + 4/(2*4) = 0.5
        ds = gen_dataset(4, 4, "orthonormal", seed=2)
        E = expected_mm(ds, 2.0, 2.0)
        assert np.allclose(np.linalg.eigvalsh(E), 0.5, atol=1e-12)

    def test_full_batch_recovers_gd_operator(self):
        ds = gen_dataset(6, 6, "gaussian", normalize=True, seed=4)
        H = hessian(ds)
        A = np.eye(6) - 0.7 * H
        assert np.allclose(expected_mm(ds, 0.7, 6.0), A @ A, atol=1e-14)

    def test_matches_monte_carlo_on_normalized_rows(self):
        ds = gen_dataset(8, 8, "gaussian", normalize=True, seed=80)
        E = expected_mm(ds, 0.5, 2.0)
        est, se = mc_expected_mm(ds, 0.5, 2.0, 100_000, seed=17)
        assert np.all(np.abs(E - est) <= 3.0 * se + 1e-12)

    @pytest.mark.parametrize("preset", ["orthonormal32", "gaussian8"])
    def test_unit_norm_rows_give_the_form_in_h(self, preset):
        # sum_i |x_i|^2 x_i x_i^T = n H when every row is unit-norm
        ds = build_dataset(preset)
        H = hessian(ds)
        for eta, m in [(0.5, 1.0), (2.0, 4.0), (1.0, float(ds.n))]:
            A = np.eye(ds.d) - eta * H
            unit_form = A @ A + (eta * eta / m) * (1 - m / ds.n) * H
            assert np.max(np.abs(expected_mm(ds, eta, m) - unit_form)) <= 1e-14

    def test_orthogonal_unnormalized_branch(self):
        # sum_i |x_i|^2 x_i x_i^T = n^2 H^2 for orthogonal rows of unequal norms
        rows = np.diag([2.0, 1.0, 0.5])
        ds = dataset_from_rows(rows, seed=3)
        E = expected_mm(ds, 0.3, 1.5)
        H = hessian(ds)
        expected = np.eye(3) - 2 * 0.3 * H + (3 / 1.5) * 0.09 * (H @ H)
        assert np.max(np.abs(E - expected)) <= 1e-14
        est, se = mc_expected_mm(ds, 0.3, 1.5, 100_000, seed=5)
        assert np.all(np.abs(E - est) <= 3.0 * se + 1e-12)

    @pytest.mark.parametrize("name", ["gaussian6x6", "cond4x16"])
    def test_general_rows_match_monte_carlo(self, name):
        # rows neither unit-norm nor orthogonal
        if name == "cond4x16":
            ds, eta, m = build_dataset(name), 0.5, 4.0
        else:
            ds, eta, m = gen_dataset(6, 6, "gaussian", seed=9), 0.5, 2.0
        assert not ds.normalized
        E = expected_mm(ds, eta, m)
        est, se = mc_expected_mm(ds, eta, m, 100_000, seed=31)
        assert lambda_max_close(E, est, se)

    def test_parameter_validation(self):
        ds = gen_dataset(4, 4, "orthonormal", seed=1)
        with pytest.raises(ValueError):
            expected_mm(ds, 0.0, 2.0)
        with pytest.raises(ValueError):
            expected_mm(ds, 0.5, 5.0)


class TestMcExpectedMM:
    def test_full_batch_zero_variance(self):
        ds = gen_dataset(5, 5, "gaussian", normalize=True, seed=6)
        est, se = mc_expected_mm(ds, 0.4, 5.0, 1000, seed=0)
        H = hessian(ds)
        A = np.eye(5) - 0.4 * H
        assert np.max(se) == 0.0
        assert np.max(np.abs(est - A @ A)) <= 1e-12

    def test_two_outcome_enumeration(self):
        # single unit sample, eta = m = 0.5: the draw either skips (M = 1) or
        # solves exactly (M = 0), each with probability 1/2, so E[M^T M] = 0.5
        ds = dataset_from_rows(np.array([[1.0]]), seed=0)
        est, se = mc_expected_mm(ds, 0.5, 0.5, 100_000, seed=11)
        assert abs(est[0, 0] - 0.5) <= 3.0 * se[0, 0]

    def test_orthonormal_grid_point(self):
        ds = gen_dataset(4, 4, "orthonormal", seed=2)
        E = expected_mm(ds, 2.0, 2.0)
        est, se = mc_expected_mm(ds, 2.0, 2.0, 100_000, seed=23)
        assert lambda_max_close(E, est, se)

    def test_deterministic_given_seed(self):
        ds = gen_dataset(4, 4, "orthonormal", seed=2)
        a, _ = mc_expected_mm(ds, 1.0, 2.0, 5000, seed=9)
        b, _ = mc_expected_mm(ds, 1.0, 2.0, 5000, seed=9)
        assert np.array_equal(a, b)

    def test_needs_two_samples(self):
        ds = gen_dataset(2, 2, "orthonormal", seed=1)
        with pytest.raises(ValueError):
            mc_expected_mm(ds, 0.5, 1.0, 1, seed=0)


class TestGEigen:
    def test_full_batch_limit(self):
        lam, eta = 0.37, 1.3
        assert g_eigen(6, 6, eta, lam) == pytest.approx((1 - eta * lam) ** 2, abs=1e-15)

    def test_null_direction_invariant(self):
        assert g_eigen(2, 8, 0.9, 0.0) == 1.0

    def test_point_value(self):
        # (1 - 0.5)^2 + (0.5/1)(1 - 1/4) = 0.25 + 0.375
        assert g_eigen(1, 4, 1.0, 0.5) == pytest.approx(0.625, abs=1e-15)

    def test_matches_expected_mm_eigenvalues(self):
        # the closed-form operator shares H's eigenbasis, so its spectrum is
        # exactly g evaluated at each curvature eigenvalue
        ds = gen_dataset(4, 4, "gaussian", normalize=True, seed=31)
        H = hessian(ds)
        lam = np.linalg.eigvalsh(H)
        for eta, m in [(1.0, 1.0), (0.5, 2.0), (0.25, 4.0)]:
            got = np.sort(np.linalg.eigvalsh(expected_mm(ds, eta, m)))
            want = np.sort(g_eigen(m, 4, eta, lam))
            assert np.allclose(got, want, atol=1e-12)


def grid_minimax(m, n, l1, ln, points=10_000):
    """Independent oracle: minimize max of the two contraction parabolas on an eta grid."""
    etas = np.linspace(1e-6 / l1, 2.0 / ln, points)
    vals = np.maximum(g_eigen(m, n, etas[:, None], np.array([l1, ln]))[:, 0],
                      g_eigen(m, n, etas[:, None], np.array([l1, ln]))[:, 1])
    idx = int(np.argmin(vals))
    lo = vals[idx - 1] if idx > 0 else vals[idx]
    hi = vals[idx + 1] if idx + 1 < len(vals) else vals[idx]
    step_tol = max(abs(lo - vals[idx]), abs(hi - vals[idx]))
    return float(vals[idx]), float(step_tol)


class TestOptimalRate:
    def test_gd_limit_two_eigenvalues(self):
        pred = optimal_rate(4, 4, 3.0, 1.0)
        assert pred.g_opt == pytest.approx(0.25, abs=1e-15)
        assert pred.eta_opt == pytest.approx(0.5, abs=1e-15)
        assert pred.branch == "gd-limit"

    def test_gd_limit_degenerate_solves_in_one_step(self):
        pred = optimal_rate(8, 8, 0.5, 0.5)
        assert pred.g_opt == 0.0
        assert pred.eta_opt == pytest.approx(2.0, abs=1e-15)
        assert pred.branch == "gd-limit"

    def test_against_grid_oracle(self):
        got, tol = grid_minimax(1, 4, 1.0, 0.25)
        pred = optimal_rate(1, 4, 1.0, 0.25)
        assert abs(pred.g_opt - got) <= tol + 1e-12

    def test_grid_oracle_random_tuples(self):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            ln = float(rng.uniform(0.05, 1.0))
            l1 = ln + float(rng.uniform(1e-3, 3.0))
            n = int(rng.integers(2, 64))
            m = float(rng.uniform(0.5, n))
            pred = optimal_rate(m, n, l1, ln)
            got, tol = grid_minimax(m, n, l1, ln)
            assert abs(pred.g_opt - got) <= tol + 1e-12

    def test_single_parabola_dominates_when_degenerate(self):
        # equal eigenvalues with m < n: the vertex value must undercut the
        # intersection expression
        for lam, m, n in [(0.5, 2, 8), (1.0, 1, 4), (0.1, 3, 5)]:
            q = 1 / m - 1 / n
            pred = optimal_rate(m, n, lam, lam)
            assert pred.branch == "single-parabola"
            assert pred.eta_opt == pytest.approx(1.0 / (lam + q), rel=1e-14)
            assert pred.g_opt == pytest.approx(q / (lam + q), rel=1e-14)
            intersection_value = 1.0 - 4 * lam * lam / (2 * lam + q) ** 2
            assert pred.g_opt < intersection_value

    def test_monotonic_in_m_on_two_parabola_branch(self):
        l1, ln, n = 2.0, 0.2, 32
        ms = np.arange(1, 33, dtype=float)
        preds = [optimal_rate(m, n, l1, ln) for m in ms]
        assert all(p.branch in ("two-parabola", "gd-limit") for p in preds)
        etas = [p.eta_opt for p in preds]
        gs = [p.g_opt for p in preds]
        assert np.all(np.diff(etas) >= -1e-15)
        assert np.all(np.diff(gs) <= 1e-15)

    def test_gd_limit_matches_condition_number_form(self):
        for l1, ln in [(3.0, 1.0), (1.0, 0.25), (2.5, 2.4)]:
            pred = optimal_rate(10, 10, l1, ln)
            assert pred.g_opt == pytest.approx(((l1 - ln) / (l1 + ln)) ** 2, rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(lambda1=st.floats(1e-100, 1e100), ratio=st.floats(1e-6, 1.0),
           n=st.integers(1, 64), frac=st.floats(1e-3, 1.0))
    def test_scaled_formulas_keep_the_plain_bits(self, lambda1, ratio, n, frac):
        # optimal_rate runs the formulas on the spectrum times a power of two;
        # on inputs where the plain formulas stay in the normal range, every
        # result is theirs, bit for bit
        lambdan, m = lambda1 * ratio, frac * n
        q = 1.0 / m - 1.0 / n
        if (lambda1 - lambdan) + _TIE_TOL * lambda1 >= q:
            denom = lambda1 + lambdan + q
            eta, g = 2.0 / denom, 1.0 - 4.0 * lambda1 * lambdan / (denom * denom)
        else:
            eta, g = 1.0 / (lambdan + q), q / (lambdan + q)
        if g >= 1.0:
            with pytest.raises(ValueError, match="rate prediction out of range"):
                optimal_rate(m, n, lambda1, lambdan)
            return
        pred = optimal_rate(m, n, lambda1, lambdan)
        assert (pred.eta_opt, pred.g_opt) == (eta, max(g, 0.0))

    @pytest.mark.parametrize("lambda1, lambdan, m, names", [
        (1.0, 1e-17, 4, "m=4, lambda1=1.0, lambdan=1e-17: eta=2.0, g=1.0"),  # g* rounds to 1
        (1e-310, 1e-310, 4, "lambda1=1e-310, lambdan=1e-310: eta=inf"),  # eta* is no float
    ])
    def test_out_of_range_names_its_inputs(self, lambda1, lambdan, m, names):
        with pytest.raises(ValueError, match=re.escape(names)):
            optimal_rate(m, 4, lambda1, lambdan)

    def test_errors(self):
        with pytest.raises(ValueError, match="invalid spectrum"):
            optimal_rate(2, 4, 1.0, 0.0)
        with pytest.raises(ValueError, match="mean batch size"):
            optimal_rate(0, 4, 1.0, 0.5)
        with pytest.raises(ValueError):
            optimal_rate(5, 4, 1.0, 0.5)


class TestOrthogonalRate:
    def test_orthonormal_full_batch(self):
        assert orthogonal_rate(4, 4, 1.0, 1.0) == 0.0

    def test_orthonormal_single_sample(self):
        got = orthogonal_rate(1, 4, 1.0, 1.0)
        assert got == pytest.approx(0.75, abs=1e-15)
        # equals the top eigenvalue of the closed-form operator at eta = 1
        ds = gen_dataset(4, 4, "orthonormal", seed=8)
        lam = np.linalg.eigvalsh(expected_mm(ds, 1.0, 1.0))[-1]
        assert got == pytest.approx(lam, abs=1e-12)

    def test_norm_spread_factor(self):
        # exact rational oracle for the mean-ratio factor
        c_exact = Fraction(1 * 4, 1) / (Fraction(1 + 4, 2) ** 2)
        assert gm_am_factor(1.0, 4.0) == pytest.approx(float(c_exact), abs=1e-15)
        assert float(c_exact) == 0.64
        assert orthogonal_rate(2, 4, 1.0, 4.0) == pytest.approx(0.68, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(1e-300, 1e300), ulps=st.integers(0, 3) | st.integers(0, 1 << 62),
           n=st.integers(1, 10_000))
    @example(a=1.0, ulps=1, n=8)  # squared norms of unit rows differ in their last bits
    def test_norm_factor_is_at_most_one(self, a, ulps, n):
        # AM-GM: the factor never exceeds 1, so the m = n bound is never
        # negative; b lies `ulps` floats above a, where rounding shows
        [bits] = struct.unpack("<q", struct.pack("<d", a))
        assume(bits + ulps < 0x7FF0000000000000)  # b finite
        [b] = struct.unpack("<d", struct.pack("<q", bits + ulps))
        assert 0.0 <= gm_am_factor(a, b) <= 1.0
        assert orthogonal_rate(n, n, a, b) >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            orthogonal_rate(2, 4, 0.0, 1.0)
        with pytest.raises(ValueError):
            orthogonal_rate(5, 4, 1.0, 1.0)


class TestCostModel:
    def test_halving_twice(self):
        cm = cost_model(2, 4, 8, 0.25, 0.5)
        assert cm.t_eps == pytest.approx(2.0, rel=1e-14)
        assert cm.total_cost == pytest.approx(2 * 8 * 2.0, rel=1e-14)

    def test_one_step_floor(self):
        assert cost_model(4, 4, 8, 0.25, 0.0).t_eps == 1.0
        assert cost_model(4, 4, 8, 0.9, 1e-300).t_eps == 1.0

    def test_scaling_undefined_when_cm_reaches_n(self):
        cm = cost_model(4, 4, 8, 0.1, 0.5, c=1.0)
        assert cm.cost_scaling is None
        assert cm.t_eps > 0

    def test_scaling_decreases_with_m(self):
        vals = [cost_model(m, 4, 8, 0.1, 0.5, c=1.0).cost_scaling for m in (1, 2, 3)]
        assert vals[0] > vals[1] > vals[2]

    def test_errors(self):
        with pytest.raises(ValueError):
            cost_model(2, 4, 8, 1.5, 0.5)
        with pytest.raises(ValueError, match="no convergence"):
            cost_model(2, 4, 8, 0.1, 1.0)
        for d in (0, -5):  # a cost of m d t_eps at d < 1 is none, or negative
            with pytest.raises(ValueError, match="dimension must be >= 1"):
                cost_model(2, 4, d, 0.1, 0.5)


class TestOracleAgreement:
    @pytest.mark.parametrize("kind,norm,seed", [
        ("orthonormal", False, 51), ("gaussian", True, 52), ("spiked", True, 53),
    ])
    def test_lambda_max_on_parameter_grid(self, kind, norm, seed):
        extra = {"rho": 0.7} if kind == "spiked" else {}
        ds = gen_dataset(6, 6, kind, normalize=norm, seed=seed, **extra)
        etas = np.linspace(0.2, 1.0, 5)
        ms = [1.0, 2.0, 3.0, 4.5, 6.0]
        for i, eta in enumerate(etas):
            for j, m in enumerate(ms):
                E = expected_mm(ds, float(eta), m)
                est, se = mc_expected_mm(ds, float(eta), m, 10_000,
                                         seed=1000 * i + j)
                assert lambda_max_close(E, est, se)
