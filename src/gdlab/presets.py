"""Pinned experiment presets: fixed dimensions, kinds, graphs and seeds.

Presets make the standard verification runs one-command and byte-reproducible.
Every random draw is derived from the seeds recorded here.
"""

from __future__ import annotations

import numpy as np

from .distributed import CommGraph, make_graph
from .problem import Dataset, dataset_from_rows, gen_dataset

PRESETS: dict[str, dict] = {
    "orthonormal32": {
        "description": "32 orthonormal samples in 32 dimensions; isotropic curvature",
        "dataset": dict(n=32, d=32, kind="orthonormal", seed=320),
        "m": 8.0,
        "sampler": "bernoulli",
        "runs": 500,
        "iters": 40,
        "stop_tol": 0.0,
        "sweep_values": [1, 2, 3, 4, 6, 8, 12, 16, 24, 31, 32],
    },
    "gaussian8": {
        "description": "8 unit-norm gaussian samples in 8 dimensions",
        "dataset": dict(n=8, d=8, kind="gaussian", normalize=True, seed=80),
        "m": 2.0,
        "sampler": "bernoulli",
        "runs": 200,
        "iters": 60,
        "stop_tol": 0.0,
    },
    "spiked64": {
        "description": "64 unit-norm samples sharing one strong direction (rho=0.9)",
        "dataset": dict(n=64, d=64, kind="spiked", rho=0.9, normalize=True, seed=640),
        "m": 4.0,
        "sampler": "bernoulli",
        "runs": 100,
        "iters": 60,
        "stop_tol": 0.0,
        "sweep_values": [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64],
    },
    "cond4x16": {
        "description": "16 samples in 16 dimensions with a two-level spectrum, condition number 4",
        "dataset": "constructed",
        "iters": 40,
        "stop_tol": 0.0,
    },
    "ring16": {
        "description": "16 unit-norm gaussian samples in 32 dimensions on a ring of 16 nodes",
        "dataset": dict(n=16, d=32, kind="gaussian", normalize=True, seed=160),
        "graph": dict(kind="ring", n=16, seed=0),
        "mu": 1.0,
        "iters": 250_000,
        "stop_tol": 1e-16,
        "w0_seed": 161,
        "sweep_values": [0.1, 1.0, 10.0],
    },
}


def _cond4x16_dataset() -> Dataset:
    # rows of a Haar orthogonal matrix scaled columnwise so the curvature
    # spectrum is exactly {1.0 (x8), 0.25 (x8)}
    Q = gen_dataset(16, 16, "orthonormal", seed=416).X
    lam = np.array([1.0] * 8 + [0.25] * 8)
    X = Q * np.sqrt(16 * lam)
    return dataset_from_rows(X, seed=417, kind="cond4x16")


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return PRESETS[name]


def build_dataset(name: str) -> Dataset:
    spec = get_preset(name)["dataset"]
    if spec == "constructed":
        return _cond4x16_dataset()
    return gen_dataset(spec["n"], spec["d"], spec["kind"], rho=spec.get("rho", 0.0),
                       normalize=spec.get("normalize", False), seed=spec["seed"])


def build_graph(name: str) -> CommGraph:
    spec = get_preset(name)["graph"]
    return make_graph(spec["kind"], spec["n"], seed=spec.get("seed", 0))
