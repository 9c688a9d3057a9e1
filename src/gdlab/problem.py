"""Interpolating linear problems and their curvature.

A dataset here is a linear regression instance with a planted parameter
vector that fits every sample exactly, so the zero-loss point is known by
construction and every solver can report its true distance to it.  The
curvature operator H = (1/n) X^T X (the sample covariance) drives all rate
predictions; its nonzero spectrum and range basis come from one eigensolve,
cached on the dataset and shared by the solver, distributed and CLI modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .io import dumps, json_int, json_object

ROW_NORM_TOL = 1e-12
_RANK_TOL = 1e-10


class DegenerateHessianError(ValueError):
    """Curvature operator has no positive eigenvalue (all-zero data)."""


def row_inner(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-row inner products sum(A * w, axis=-1); w may be a stack of states.

    Labels are generated with this exact reduction; per-node residuals in the
    distributed solver reuse it so an exact-fit state gives bitwise-zero
    residuals.
    """
    return np.add.reduce(A * w, axis=-1)


@dataclass(frozen=True)
class Dataset:
    """Linear samples with a planted exactly-interpolating parameter.

    X is n x d with rows x_i and y_i = x_i . w_star at generation time.
    Instances are immutable and safe to share across workers; `spectral` and
    `normalized` are therefore measured from X on first use and cached.
    """

    X: np.ndarray
    y: np.ndarray
    w_star: np.ndarray
    kind: str
    seed: int

    def __post_init__(self):
        self.X.flags.writeable = False
        self.y.flags.writeable = False
        self.w_star.flags.writeable = False

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def row_norms_sq(self) -> np.ndarray:
        return np.sum(self.X * self.X, axis=1)

    @cached_property
    def spectral(self) -> SpectralSummary:
        """Spectrum and range basis of H = (1/n) X^T X (one eigensolve per dataset)."""
        return spectral_summary(hessian(self))

    @cached_property
    def normalized(self) -> bool:
        """Every squared row norm lies within ROW_NORM_TOL of 1."""
        return bool(np.max(np.abs(self.row_norms_sq() - 1.0)) <= ROW_NORM_TOL)


def _plant(X: np.ndarray, rng: np.random.Generator, kind: str, seed: int) -> Dataset:
    d = X.shape[1]
    w_star = rng.standard_normal(d)
    y = row_inner(X, w_star)
    return Dataset(X=X, y=y, w_star=w_star, kind=kind, seed=seed)


def gen_dataset(n: int, d: int, kind: str, *, rho: float = 0.0,
                normalize: bool = False, seed: int = 0) -> Dataset:
    """Generate an interpolating dataset of the requested kind.

    Kinds:
      orthonormal -- first n rows of a Haar-random orthogonal d x d matrix
                     (requires n <= d); rows are unit-norm and orthogonal.
      gaussian    -- i.i.d. entries of variance 1/d.
      spiked      -- gaussian rows blended with one shared unit direction u:
                     x_i = sqrt(1-rho) g_i + sqrt(rho) u, so a fraction rho of
                     the curvature trace concentrates on u.

    A nonzero rho is refused for any kind but spiked.  With `normalize`
    every row is rescaled to unit norm afterward.  The
    planted parameter is standard normal and labels are exact row inner
    products.  Deterministic given `seed`.
    """
    if n <= 0 or d <= 0:
        raise ValueError(f"invalid dimension: n={n}, d={d}")
    if rho != 0 and kind != "spiked":
        raise ValueError(f"rho is read only by the spiked kind: kind={kind!r}, rho={rho}")
    rng = np.random.default_rng(seed)
    kind_label = kind
    if kind == "orthonormal":
        if n > d:
            raise ValueError(f"orthonormal rows are infeasible for n={n} > d={d}")
        G = rng.standard_normal((d, d))
        Q, R = np.linalg.qr(G)
        signs = np.sign(np.diag(R))
        signs[signs == 0] = 1.0
        X = (Q * signs)[:n, :].copy()
    elif kind == "gaussian":
        X = rng.standard_normal((n, d)) / math.sqrt(d)
    elif kind == "spiked":
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"spiked correlation must lie in [0, 1): rho={rho}")
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        G = rng.standard_normal((n, d)) / math.sqrt(d)
        X = math.sqrt(1.0 - rho) * G + math.sqrt(rho) * u
        kind_label = f"spiked({rho:g})"
    else:
        raise ValueError(f"unknown dataset kind: {kind!r}")
    if normalize:
        X = X / np.linalg.norm(X, axis=1, keepdims=True)
    return _plant(X, rng, kind_label, seed)


def dataset_from_rows(X: np.ndarray, *, seed: int = 0, kind: str = "custom") -> Dataset:
    """Plant an interpolating parameter on user-supplied rows."""
    X = np.array(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"invalid dimension: X shape {X.shape}")
    return _plant(X, np.random.default_rng(seed), kind, seed)


def hessian(ds: Dataset) -> np.ndarray:
    """Dense curvature operator H = (1/n) X^T X, symmetrized bitwise."""
    H = ds.X.T @ ds.X / ds.n
    return (H + H.T) / 2.0


@dataclass(frozen=True)
class SpectralSummary:
    """Nonzero spectrum of H, the derived parallelism quantities, and an
    orthonormal basis of range(H), whose columns span every direction a
    gradient step moves."""

    eigenvalues: np.ndarray  # descending
    rank: int
    lambda_max: float
    lambda_min_nz: float
    trace: float
    condition_number: float
    m_star: float  # trace / lambda_max, the batch size where parallel gains saturate
    tol: float
    basis: np.ndarray  # d x rank, orthonormal eigenvectors in eigenvalue order

    def __post_init__(self):
        # shared through Dataset.spectral, so no caller may change it
        self.eigenvalues.flags.writeable = False
        self.basis.flags.writeable = False


def spectral_summary(H: np.ndarray) -> SpectralSummary:
    """Full symmetric eigensolve of H with a relative rank cut at _RANK_TOL * lambda_max."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"H must be square, got shape {H.shape}")
    if np.max(np.abs(H - H.T)) > 1e-10:
        raise ValueError("H is not symmetric within 1e-10")
    evals, vecs = np.linalg.eigh(H)
    evals = evals[::-1].copy()
    lambda_max = float(evals[0])
    if lambda_max <= 0.0:
        raise DegenerateHessianError("curvature operator has no positive eigenvalue")
    cut = _RANK_TOL * lambda_max
    rank = int(np.count_nonzero(evals > cut))
    lambda_min_nz = float(evals[rank - 1])
    trace = float(np.trace(H))
    return SpectralSummary(
        eigenvalues=evals,
        rank=rank,
        lambda_max=lambda_max,
        lambda_min_nz=lambda_min_nz,
        trace=trace,
        condition_number=lambda_max / lambda_min_nz,
        m_star=trace / lambda_max,
        tol=_RANK_TOL,
        basis=vecs[:, ::-1][:, :rank].copy(),
    )


def dataset_to_json(ds: Dataset) -> str:
    doc = {
        "n": ds.n,
        "d": ds.d,
        "normalized": ds.normalized,
        "seed": ds.seed,
        "kind": ds.kind,
        "X": ds.X,
        "y": ds.y,
        "w_star": ds.w_star,
    }
    return dumps(doc)


def dataset_from_json(text: str) -> Dataset:
    """The dataset of dataset_to_json's text, refused unless n, d and seed
    are JSON integers, X is n x d with n, d >= 1, y and w_star have shapes
    (n,) and (d,), every entry is finite, and w_star fits every label:
    |y_i - x_i . w_star| is at most d eps sum_j |x_ij w_star_j|, the
    rounding bound of a d-term inner product.  A file of dataset_to_json
    fits exactly."""
    what = "invalid dataset file"
    doc = json_object(text, ("n", "d", "kind", "seed", "X", "y", "w_star"), what)
    try:
        X, y, w_star = (np.array(doc[key], dtype=float) for key in ("X", "y", "w_star"))
        n, d, seed = (json_int(doc[key], key) for key in ("n", "d", "seed"))
        kind = str(doc["kind"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: {exc}") from None
    if min(n, d) < 1 or X.shape != (n, d) or y.shape != (n,) or w_star.shape != (d,):
        raise ValueError(f"{what}: need n, d >= 1, X of shape (n, d), y (n,) and w_star (d,), "
                         f"got n={n}, d={d}, X {X.shape}, y {y.shape}, w_star {w_star.shape}")
    if not all(np.isfinite(a).all() for a in (X, y, w_star)):
        raise ValueError(f"{what}: X, y and w_star must be finite")
    gap = np.abs(y - row_inner(X, w_star))
    if not np.all(gap <= d * np.finfo(float).eps * row_inner(np.abs(X), np.abs(w_star))):
        raise ValueError(f"{what}: w_star does not fit the labels (largest gap {gap.max():g})")
    return Dataset(X=X, y=y, w_star=w_star, kind=kind, seed=seed)


def load_dataset(path: str) -> Dataset:
    with open(path) as fh:
        return dataset_from_json(fh.read())
