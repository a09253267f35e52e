"""Interacting particle systems: the finite-N filter, its exact mean-field
family, and coupled independent copies for propagation-of-chaos runs.

A particle update (default variant) is
    X^i <- X^i + A X^i dt + sigma_B dB^i + K (dZ - H (X^i + m) dt / 2)
with the empirical gain K = S H^T.  The (gamma1, gamma2) family trades the
per-particle process noise against a deterministic spread term and an
observation perturbation; all members share the same mean and covariance
dynamics, so they are interchangeable in law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linmodel import ModelParams, NoiseBundle, TimeGrid, psd_sqrt

__all__ = [
    "VariantParams",
    "STOCHASTIC_FPF",
    "DETERMINISTIC_FPF",
    "PERTURBED_OBSERVATION",
    "Ensemble",
    "EnsembleStats",
    "CoupledSystem",
    "EnsembleCollapseError",
    "init_ensemble",
    "empirical_stats",
    "ensemble_moments",
    "particle_increments",
    "particle_normals",
    "particle_step",
    "prior_states",
    "fpf_step",
    "coupled_step",
    "init_coupled",
    "mean_field_copy_step",
    "particle_process_noise",
    "particle_obs_perturbations",
]

# Sub-stream purposes within one particle's stream.
PURPOSE_INIT = 0
PURPOSE_PROCESS = 1
PURPOSE_OBS_PERTURB = 2


class EnsembleCollapseError(RuntimeError):
    """Empirical covariance is numerically singular where its inverse is needed."""


@dataclass(frozen=True)
class VariantParams:
    """Mixing weights (gamma1, gamma2) selecting a member of the exact family.

    (1, 0) is the stochastic linear FPF / square-root filter (the default),
    (1, 1) uses perturbed observations, (0, 0) is the deterministic filter.
    """

    gamma1: float = 1.0
    gamma2: float = 0.0

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            v = float(getattr(self, name))
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, v)


STOCHASTIC_FPF = VariantParams(1.0, 0.0)
DETERMINISTIC_FPF = VariantParams(0.0, 0.0)
PERTURBED_OBSERVATION = VariantParams(1.0, 1.0)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """N particle states at one time, with the variant that evolves them."""

    t: float
    states: np.ndarray  # (N, d)
    variant: VariantParams = STOCHASTIC_FPF

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if states.shape[0] < 2:
            raise ValueError("an ensemble needs at least 2 particles")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def N(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Empirical mean, unbiased covariance (divisor N-1), and centered errors."""

    mean: np.ndarray  # (d,)
    cov: np.ndarray  # (d, d)
    errors: np.ndarray  # (N, d)


@dataclass(frozen=True, eq=False)
class CoupledSystem:
    """Finite-N ensemble plus N independent mean-field copies.

    Copy i shares particle i's initial draw and process-noise increments;
    the copies interact only through the exact filter moments.
    """

    ensemble: Ensemble
    copies: np.ndarray  # (N, d)

    def __post_init__(self):
        copies = np.atleast_2d(np.asarray(self.copies, dtype=float))
        if copies.shape != self.ensemble.states.shape:
            raise ValueError(
                f"copies shape {copies.shape} does not match ensemble "
                f"{self.ensemble.states.shape}"
            )
        copies.setflags(write=False)
        object.__setattr__(self, "copies", copies)

    @property
    def t(self) -> float:
        return self.ensemble.t

    @property
    def N(self) -> int:
        return self.ensemble.N


def prior_states(params: ModelParams, z: np.ndarray) -> np.ndarray:
    """Prior draws m0 + Sigma0^(1/2) z for standard normals z of shape (..., d).

    The product runs as one matrix-vector product per draw, so a batch of
    draws matches drawing them one at a time bit for bit."""
    L = psd_sqrt(params.Sigma0)
    return params.m0 + (L @ z[..., None])[..., 0]


def init_ensemble(
    params: ModelParams,
    N: int,
    variant: VariantParams,
    noise: NoiseBundle,
    t0: float = 0.0,
) -> Ensemble:
    """Draw N i.i.d. particles from the prior, one stream per particle.

    Particle i's initial draw comes from ``noise.child(i, 0)``; its process
    and observation-perturbation increments use sub-streams 1 and 2 (see
    :func:`particle_process_noise`), so coupled constructions can replay
    exactly the same noise.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    z = particle_normals(noise, N, PURPOSE_INIT, params.d)
    return Ensemble(t=t0, states=prior_states(params, z), variant=variant)


def particle_normals(noise: NoiseBundle, N: int, purpose: int, shape, batch=(),
                     time_major=False) -> np.ndarray:
    """Standard normals of sub-stream ``purpose`` of N particles, shape
    S + (N,) + shape, or with ``time_major`` (shape[0],) + S + (N,) +
    shape[1:] (see :meth:`NoiseBundle.child_normals`).

    Particle i draws from ``noise.child(*batch, i, purpose)``.  ``batch``
    holds leading stream-id components; those that are integer arrays
    broadcast to S, which steps many trials' particles together."""
    batch = tuple(c[..., None] if isinstance(c, np.ndarray) else c for c in batch)
    return noise.child_normals(*batch, np.arange(N), purpose, shape=shape,
                               time_major=time_major)


def particle_increments(
    noise: NoiseBundle, N: int, grid: TimeGrid, dim: int, purpose: int, batch=()
) -> np.ndarray:
    """Wiener increments N(0, dt I) of N particles over ``grid``, time
    first and contiguous: shape (n_steps,) + S + (N, dim); streams as in
    :func:`particle_normals`."""
    out = particle_normals(noise, N, purpose, (grid.n_steps, dim), batch, time_major=True)
    out *= np.sqrt(grid.dt)
    return out


def particle_process_noise(
    noise: NoiseBundle, N: int, grid: TimeGrid, d_B: int
) -> np.ndarray:
    """Pre-generated process increments for N particles, shape (n_steps, N, d_B)."""
    return particle_increments(noise, N, grid, d_B, PURPOSE_PROCESS)


def particle_obs_perturbations(
    noise: NoiseBundle, N: int, grid: TimeGrid, m: int
) -> np.ndarray:
    """Pre-generated observation perturbations, shape (n_steps, N, m)."""
    return particle_increments(noise, N, grid, m, PURPOSE_OBS_PERTURB)


def ensemble_moments(x: np.ndarray) -> tuple:
    """Empirical means (..., d) and unbiased covariances (..., d, d) of
    ensembles ``x`` of shape (..., N, d).

    Every ensemble in a batch gets the bits of its own unbatched call: the
    mean is ``x.mean(axis=-2)`` (spelled as its sum over N, without the
    method's per-call overhead), and for d = 1 the variance is a stacked
    dot product."""
    N, d = x.shape[-2:]
    mean = np.add.reduce(x, axis=-2) / N
    e = x - mean[..., None, :]
    if d == 1:
        e = e[..., 0]
        cov = (e[..., None, :] @ e[..., :, None]) / (N - 1)
    else:
        g = np.swapaxes(e, -1, -2) @ e
        cov = 0.5 * (g + np.swapaxes(g, -1, -2)) / (N - 1)
    return mean, cov


def empirical_stats(ens: Ensemble) -> EnsembleStats:
    """Empirical mean, unbiased covariance, and error vectors of an ensemble."""
    mean, cov = ensemble_moments(ens.states)
    return EnsembleStats(mean=mean, cov=cov, errors=ens.states - mean)


def _check_invertible(cov: np.ndarray) -> None:
    if cov.shape[-2:] == (1, 1):
        w_min = tr = cov[..., 0, 0]
    else:
        w_min = np.linalg.eigvalsh(cov).min(axis=-1)
        tr = np.trace(cov, axis1=-2, axis2=-1)
    bad = (w_min <= 0.0) | (w_min < 1e-10 * tr)
    if np.any(bad):
        j = np.flatnonzero(bad)[0]
        raise EnsembleCollapseError(
            f"empirical covariance is numerically singular (min eig "
            f"{float(np.ravel(w_min)[j]):.3e}, trace {float(np.ravel(tr)[j]):.3e}); "
            "the gamma1 < 1 drift requires its inverse"
        )


def _rows(v, N):
    """Vectors ``v`` (..., k) repeated into contiguous (..., N, k) rows."""
    return v[..., None, :].repeat(N, axis=-2)


def _weighted_sum(mean, x, g2):
    """(1 - g2^2) mean + (1 + g2^2) x; both weights are 1 when g2 = 0, so
    the sum is then taken without them, to the same bits."""
    if g2 == 0.0:
        return mean + x
    return (1.0 - g2 * g2) * mean + (1.0 + g2 * g2) * x


def particle_step(
    x: np.ndarray,
    mean: np.ndarray,
    cov: np.ndarray,
    dZ: np.ndarray,
    dt: float,
    params: ModelParams,
    variant: VariantParams,
    dB: np.ndarray | None = None,
    dW: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One Euler step of ensembles ``x`` of shape (..., N, d): the one
    particle and copy update, which :func:`fpf_step`,
    :func:`mean_field_copy_step` and :func:`coupled_step` wrap.

    ``mean`` (..., d) and ``cov`` (..., d, d) are each ensemble's moments
    at the step's start, which set the gain cov H^T: the empirical ones for
    the finite-N filter, the exact filter's for mean-field copies (variant
    (1, 0)).  ``dZ`` (..., m) are the observation increments, ``dB``
    (..., N, d_B) the process increments (None means zero) and ``dW``
    (..., N, m) the observation perturbations that gamma2 > 0 requires.
    ``x`` carries the whole batch shape; the leading axes of the other
    arguments broadcast against it.  Each ensemble of a batch goes through
    the operations of an unbatched call, so batching does not change bits.
    The update builds two arrays, the new states and the innovations, and
    works on both in place: on large populations a fresh temporary per
    term costs page faults that outweigh the arithmetic.  ``out``, an
    array of the shape of ``x`` that shares no memory with it, receives the
    new states in place of a fresh array, to the same bits.
    """
    g1 = variant.gamma1
    g2 = variant.gamma2
    if g2 > 0.0 and dW is None:
        raise ValueError("gamma2 > 0 requires per-particle dW_k perturbations")
    if out is None:
        out = np.empty(x.shape)
    elif np.may_share_memory(out, x):
        raise ValueError("out must not share memory with x")
    if g1 < 1.0:
        _check_invertible(cov)
    if params.is_scalar:
        xf = x[..., 0]
        m = mean[..., :1]
        s_val = cov[..., 0, :]
        a = float(params.A[0, 0])
        h = float(params.H[0, 0])
        sb = float(params.sigma_B[0, 0])
        new = out[..., 0]
        np.multiply(a * dt, xf, out=new)
        np.add(xf, new, out=new)
        if dB is not None and g1 > 0.0:
            new += (g1 * sb) * dB[..., 0]
        if g1 < 1.0:
            new += (0.5 * (1.0 - g1 * g1) * float(params.Sigma_B[0, 0]) / s_val * dt) * (xf - m)
        innov = _weighted_sum(m, xf, g2)
        innov *= 0.5 * h
        innov *= dt
        np.subtract(dZ[..., :1], innov, out=innov)
        if g2 > 0.0:
            innov += g2 * dW[..., 0]
        innov *= s_val * h
        new += innov
        return out
    # numpy's fast paths want C-contiguous right operands of matmul and
    # operands of the same shape, not a length-d inner broadcast; both
    # only change the layout, so the bits stay those of the plain formula
    N = x.shape[-2]
    mean = _rows(mean, N)
    new = np.matmul(x, np.ascontiguousarray(params.A.T), out=out)
    new *= dt
    new += x
    if dB is not None and g1 > 0.0:
        noise = dB @ np.ascontiguousarray(params.sigma_B.T)
        new += noise if g1 == 1.0 else g1 * noise
    if g1 < 1.0:
        G = 0.5 * (1.0 - g1 * g1) * (params.Sigma_B @ np.linalg.inv(cov))
        new += ((x - mean) @ np.ascontiguousarray(np.swapaxes(G, -1, -2))) * dt
    innov = (0.5 * _weighted_sum(mean, x, g2)) @ np.ascontiguousarray(params.H.T)
    innov *= dt
    np.subtract(_rows(dZ, N), innov, out=innov)
    if g2 > 0.0:
        innov += g2 * dW
    new += innov @ np.ascontiguousarray(np.swapaxes(cov @ params.H.T, -1, -2))
    return new


def fpf_step(
    ens: Ensemble,
    stats: EnsembleStats,
    dZ_k: np.ndarray,
    dt: float,
    params: ModelParams,
    dB_k: np.ndarray | None = None,
    dW_k: np.ndarray | None = None,
    cov_override: np.ndarray | None = None,
) -> Ensemble:
    """Advance every particle by one Euler step.

    ``stats`` must be the empirical statistics of ``ens`` at the same time
    (the gain is frozen at the step's start).  ``dB_k`` are this step's
    process increments, shape (N, d_B); None means zero.  ``dW_k`` supplies
    the per-particle observation perturbations required when gamma2 > 0.
    ``cov_override`` replaces the empirical covariance in the gain and
    spread terms (test hook for forced-gain couplings).
    """
    S = stats.cov if cov_override is None else np.atleast_2d(np.asarray(cov_override, float))
    N = ens.N
    dZ_k = np.atleast_1d(np.asarray(dZ_k, dtype=float))
    if dZ_k.shape != (params.m,):
        raise ValueError(f"dZ_k has shape {dZ_k.shape}, expected {(params.m,)}")
    if dB_k is not None:
        dB_k = np.asarray(dB_k, dtype=float)
        if dB_k.shape != (N, params.d_B):
            raise ValueError(f"dB_k has shape {dB_k.shape}, expected {(N, params.d_B)}")
    if ens.variant.gamma2 > 0.0 and dW_k is not None:
        dW_k = np.asarray(dW_k, dtype=float)
        if dW_k.shape != (N, params.m):
            raise ValueError(f"dW_k has shape {dW_k.shape}, expected {(N, params.m)}")
    states = particle_step(
        ens.states, stats.mean, S, dZ_k, dt, params, ens.variant, dB=dB_k, dW=dW_k
    )
    return Ensemble(t=ens.t + dt, states=states, variant=ens.variant)


def mean_field_copy_step(
    copies: np.ndarray,
    kf_mean: np.ndarray,
    kf_cov: np.ndarray,
    dZ_k: np.ndarray,
    dt: float,
    params: ModelParams,
    dB_k: np.ndarray | None = None,
) -> np.ndarray:
    """One Euler step of independent mean-field copies with the exact gain.

    Xbar^i <- Xbar^i + A Xbar^i dt + sigma_B dB^i
              + Sigma_t H^T (dZ - H (Xbar^i + m_t) dt / 2)
    where (m_t, Sigma_t) is the exact filter state at the same time: the
    particle step of variant (1, 0) fed the exact moments.
    """
    return particle_step(
        np.asarray(copies, dtype=float), np.atleast_1d(kf_mean), np.atleast_2d(kf_cov),
        np.atleast_1d(np.asarray(dZ_k, dtype=float)), dt, params, STOCHASTIC_FPF,
        dB=None if dB_k is None else np.asarray(dB_k, dtype=float),
    )


def init_coupled(ens: Ensemble) -> CoupledSystem:
    """Pair an initial ensemble with copies started at the same draws."""
    return CoupledSystem(ensemble=ens, copies=ens.states.copy())


def coupled_step(
    sys: CoupledSystem,
    kf_state,
    dZ_k: np.ndarray,
    dt: float,
    params: ModelParams,
    dB_k: np.ndarray | None = None,
    dW_k: np.ndarray | None = None,
    cov_override: np.ndarray | None = None,
) -> CoupledSystem:
    """Advance the ensemble and its mean-field copies with shared noise.

    ``kf_state`` must be the exact filter state at the system's current
    time; a mismatch means the caller's streams or clocks desynchronized.
    The same ``dB_k`` drives particle i and copy i.
    """
    if abs(kf_state.t - sys.t) > 1e-9:
        raise ValueError(
            f"filter state at t={kf_state.t} but coupled system at t={sys.t}; "
            "noise streams are out of sync"
        )
    stats = empirical_stats(sys.ensemble)
    new_ens = fpf_step(
        sys.ensemble, stats, dZ_k, dt, params,
        dB_k=dB_k, dW_k=dW_k, cov_override=cov_override,
    )
    new_copies = mean_field_copy_step(
        sys.copies, kf_state.mean, kf_state.cov, dZ_k, dt, params, dB_k=dB_k
    )
    return CoupledSystem(ensemble=new_ens, copies=new_copies)

