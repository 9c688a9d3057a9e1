"""Tests for dataset generation, the curvature operator, and its spectrum."""

import json

import numpy as np
import pytest

from gdlab.problem import (
    Dataset,
    DegenerateHessianError,
    dataset_from_json,
    dataset_from_rows,
    dataset_to_json,
    gen_dataset,
    hessian,
    load_dataset,
    spectral_summary,
)

KINDS = [("orthonormal", {}), ("gaussian", {}), ("spiked", {"rho": 0.6})]


def power_iteration_lambda_max(H, iters=5000, tol=1e-14, seed=0):
    """Independent dominant-eigenvalue oracle."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(H.shape[0])
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = H @ x
        lam = float(x @ y)
        x = y / np.linalg.norm(y)
        if np.linalg.norm(H @ x - lam * x) < tol:
            break
    return lam


class TestGenDataset:
    def test_one_dimensional_orthonormal(self):
        ds = gen_dataset(1, 1, "orthonormal", normalize=True, seed=7)
        assert abs(ds.X[0, 0]) == 1.0
        assert ds.y[0] == ds.X[0, 0] * ds.w_star[0]

    def test_orthonormal_4x4_gives_isotropic_hessian(self):
        ds = gen_dataset(4, 4, "orthonormal", seed=3)
        assert np.allclose(hessian(ds), np.eye(4) / 4, atol=1e-12)

    def test_spiked_concentrates_spectrum(self):
        # dense eigensolve confirms the shared direction dominates the trace
        ds = gen_dataset(8, 16, "spiked", rho=0.9, normalize=True, seed=1)
        H = hessian(ds)
        evals = np.linalg.eigvalsh(H)
        assert evals[-1] >= 0.5 * np.trace(H)

    @pytest.mark.parametrize("n,d", [(0, 4), (4, 0), (-1, 2)])
    def test_invalid_dimensions(self, n, d):
        with pytest.raises(ValueError, match="invalid dimension"):
            gen_dataset(n, d, "gaussian", seed=0)

    def test_orthonormal_needs_n_at_most_d(self):
        with pytest.raises(ValueError, match="infeasible"):
            gen_dataset(5, 4, "orthonormal", seed=0)

    def test_spiked_rho_range(self):
        with pytest.raises(ValueError):
            gen_dataset(4, 4, "spiked", rho=1.0, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_dataset(4, 4, "laplace", seed=0)

    @pytest.mark.parametrize("kind,extra", KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_interpolation_residual(self, kind, extra, seed):
        ds = gen_dataset(6, 8, kind, normalize=True, seed=seed, **extra)
        res = np.max(np.abs(ds.y - ds.X @ ds.w_star))
        assert res <= 1e-10 * (1 + np.linalg.norm(ds.w_star))

    @pytest.mark.parametrize("kind,extra", KINDS)
    def test_normalized_rows(self, kind, extra):
        ds = gen_dataset(5, 8, kind, normalize=True, seed=11, **extra)
        assert ds.normalized
        assert np.max(np.abs(ds.row_norms_sq() - 1.0)) <= 1e-12

    def test_orthonormal_rows_are_unit_without_normalize(self):
        ds = gen_dataset(6, 9, "orthonormal", seed=5)
        assert ds.normalized
        assert np.max(np.abs(ds.row_norms_sq() - 1.0)) <= 1e-12

    def test_seed_determinism(self):
        a = gen_dataset(6, 8, "gaussian", seed=42)
        b = gen_dataset(6, 8, "gaussian", seed=42)
        c = gen_dataset(6, 8, "gaussian", seed=43)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.w_star, b.w_star)
        assert not np.array_equal(a.X, c.X)

    def test_arrays_are_read_only(self):
        ds = gen_dataset(3, 3, "gaussian", seed=0)
        with pytest.raises(ValueError):
            ds.X[0, 0] = 1.0

    def test_dataset_from_rows_plants_solution(self):
        X = np.array([[1.0, 2.0], [0.5, -1.0]])
        ds = dataset_from_rows(X, seed=9)
        assert np.allclose(ds.y, X @ ds.w_star, atol=1e-14)
        assert not ds.normalized


class TestHessian:
    def test_single_sample(self):
        ds = dataset_from_rows(np.array([[2.0, 0.0]]), seed=0)
        assert np.array_equal(hessian(ds), np.array([[4.0, 0.0], [0.0, 0.0]]))

    def test_matches_triple_loop(self):
        ds = gen_dataset(8, 8, "gaussian", seed=3)
        naive = np.zeros((8, 8))
        for a in range(8):
            for b in range(8):
                for i in range(8):
                    naive[a, b] += ds.X[i, a] * ds.X[i, b]
        naive /= 8
        assert np.max(np.abs(hessian(ds) - naive)) <= 1e-12

    def test_trace_and_psd(self):
        ds = gen_dataset(5, 9, "gaussian", seed=8)
        H = hessian(ds)
        assert np.isclose(np.trace(H), ds.row_norms_sq().sum() / ds.n, rtol=1e-12)
        assert np.linalg.eigvalsh(H)[0] >= -1e-12


class TestSpectralSummary:
    def test_isotropic(self):
        ss = spectral_summary(0.25 * np.eye(4))
        assert ss.lambda_max == ss.lambda_min_nz == 0.25
        assert ss.rank == 4
        assert ss.condition_number == 1.0
        assert ss.m_star == 4.0

    def test_rank_one(self):
        ss = spectral_summary(np.diag([1.0, 0.0]))
        assert ss.rank == 1
        assert ss.lambda_max == ss.lambda_min_nz == 1.0
        assert ss.m_star == 1.0

    def test_m_star_against_power_iteration(self):
        ds = gen_dataset(8, 16, "spiked", rho=0.9, normalize=True, seed=1)
        H = hessian(ds)
        ss = spectral_summary(H)
        lam_pi = power_iteration_lambda_max(H)
        assert np.isclose(ss.m_star, np.trace(H) / lam_pi, rtol=1e-6)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateHessianError):
            spectral_summary(np.zeros((3, 3)))

    def test_asymmetric_raises(self):
        H = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            spectral_summary(H)

    @pytest.mark.parametrize("kind,extra", KINDS)
    def test_summary_invariants(self, kind, extra):
        ds = gen_dataset(6, 8, kind, normalize=True, seed=21, **extra)
        H = hessian(ds)
        ss = spectral_summary(H)
        assert np.all(np.diff(ss.eigenvalues) <= 0)
        assert np.all(ss.eigenvalues >= -ss.tol)
        assert np.isclose(ss.trace, ss.eigenvalues.sum(), rtol=1e-10)
        assert 1.0 - 1e-12 <= ss.m_star <= ss.rank + 1e-12

    def test_eigendecomposition_reconstructs(self):
        ds = gen_dataset(7, 7, "gaussian", seed=13)
        H = hessian(ds)
        evals, vecs = np.linalg.eigh(H)
        recon = (vecs * evals) @ vecs.T
        assert np.max(np.abs(H - recon)) <= 1e-9 * evals[-1]


class TestRangeProjector:
    def test_diagonal_example(self):
        rp = spectral_summary(np.diag([1.0, 0.0]))
        v = np.array([3.0, 5.0])
        assert np.allclose(rp.project(v), [3.0, 0.0], atol=1e-12)
        assert np.allclose(rp.residual(v), [0.0, 5.0], atol=1e-12)

    def test_full_rank_projects_to_identity(self):
        ds = gen_dataset(6, 6, "gaussian", seed=4)
        rp = ds.spectral
        v = np.random.default_rng(1).standard_normal(6)
        assert np.allclose(rp.project(v), v, atol=1e-10)

    def test_rows_lie_in_range(self):
        ds = gen_dataset(2, 4, "gaussian", seed=6)
        rp = ds.spectral
        for i in range(ds.n):
            assert np.linalg.norm(rp.residual(ds.X[i])) <= 1e-8 * np.linalg.norm(ds.X[i])

    def test_basis_orthonormal(self):
        ds = gen_dataset(3, 7, "gaussian", seed=9)
        rp = ds.spectral
        r = rp.basis.shape[1]
        assert r == 3
        assert np.max(np.abs(rp.basis.T @ rp.basis - np.eye(r))) <= 1e-10


class TestSerialization:
    @pytest.mark.parametrize("kind,extra", KINDS)
    def test_round_trip_is_exact(self, kind, extra):
        ds = gen_dataset(5, 6, kind, normalize=True, seed=77, **extra)
        back = dataset_from_json(dataset_to_json(ds))
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.w_star, ds.w_star)
        assert (back.n, back.d, back.kind, back.seed, back.normalized) == \
               (ds.n, ds.d, ds.kind, ds.seed, ds.normalized)

    def test_document_schema(self):
        ds = gen_dataset(2, 3, "gaussian", seed=5)
        doc = json.loads(dataset_to_json(ds))
        assert set(doc) == {"n", "d", "normalized", "seed", "kind", "X", "y", "w_star"}
        assert doc["n"] == 2 and doc["d"] == 3

    def test_normalized_is_measured_not_read(self):
        # a document's claim is ignored; the written key states the measurement
        ds = gen_dataset(3, 4, "gaussian", seed=6)
        claim = json.loads(dataset_to_json(ds))
        claim["normalized"] = True
        back = dataset_from_json(json.dumps(claim))
        assert not back.normalized
        assert json.loads(dataset_to_json(back))["normalized"] is False

    def test_file_round_trip(self, tmp_path):
        ds = gen_dataset(4, 4, "orthonormal", seed=12)
        path = str(tmp_path / "ds.json")
        with open(path, "w") as fh:
            fh.write(dataset_to_json(ds) + "\n")
        back = load_dataset(path)
        assert np.array_equal(back.X, ds.X)
