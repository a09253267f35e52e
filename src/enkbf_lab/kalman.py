"""Kalman-Bucy reference filter driven by a recorded observation record."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linmodel import ModelParams, TimeGrid, symmetrize
from .riccati import integrate_dre

__all__ = ["FilterState", "FilterPath", "kb_filter"]

_PSD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class FilterState:
    """Posterior mean and covariance at one time instant."""

    t: float
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = symmetrize(np.atleast_2d(np.asarray(self.cov, dtype=float)))
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean size {mean.size}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True, eq=False)
class FilterPath:
    """Filter output on a grid: times (n+1,), means (n+1, d), covs (n+1, d, d)."""

    times: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def state(self, k: int) -> FilterState:
        return FilterState(t=float(self.times[k]), mean=self.means[k], cov=self.covs[k])


def kb_filter(
    params: ModelParams,
    grid: TimeGrid,
    obs: np.ndarray,
    init: FilterState | None = None,
    cov_path: np.ndarray | None = None,
) -> FilterPath:
    """Run the Kalman-Bucy filter against a recorded observation record,
    the increments dZ_k of shape (n_steps, m).

    The mean is updated by explicit Euler with gain K_k = Sigma_k H^T,
    m <- m + A m dt + K_k (dZ_k - H m dt).  The covariance advances by one
    RK4 step of the DRE per grid step and does not depend on the
    observations, so its path equals integrate_dre output bit for bit.

    ``cov_path`` optionally supplies that precomputed covariance path (from
    :func:`integrate_dre` with matching init and grid), which repeated runs
    over many observation records on one grid should share.
    """
    if init is None:
        init = FilterState(t=grid.t0, mean=params.m0, cov=params.Sigma0)
    if init.mean.size != params.d:
        raise ValueError("init mean dimension does not match the model")
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (grid.n_steps, params.m):
        raise ValueError(
            f"observation record has shape {obs.shape}, expected {(grid.n_steps, params.m)}"
        )
    w_min = float(np.linalg.eigvalsh(init.cov).min())
    if w_min < -_PSD_TOL * max(1.0, float(np.abs(init.cov).max())):
        raise ValueError("init covariance must be positive semi-definite")

    n = grid.n_steps
    d = params.d
    if cov_path is None:
        covs = integrate_dre(init.cov, params, grid)
    else:
        covs = np.asarray(cov_path, dtype=float)
        if covs.shape != (n + 1, d, d):
            raise ValueError(f"cov_path has shape {covs.shape}, expected {(n + 1, d, d)}")

    means = np.empty((n + 1, d))
    means[0] = init.mean
    dt = grid.dt
    if params.is_scalar:
        a = float(params.A[0, 0])
        h = float(params.H[0, 0])
        K = (covs[:, 0, 0] * h).tolist()
        dZ = obs[:, 0].tolist()
        m = float(init.mean[0])
        out = means[:, 0]
        for k in range(n):
            m = m + a * m * dt + K[k] * (dZ[k] - h * m * dt)
            out[k + 1] = m
    else:
        A = params.A
        H = params.H
        m = means[0].copy()
        for k in range(n):
            K = covs[k] @ H.T
            m = m + (A @ m) * dt + K @ (obs[k] - (H @ m) * dt)
            means[k + 1] = m
    return FilterPath(times=grid.times(), means=means, covs=covs)
