"""Riccati machinery: vector fields, DRE/ARE solvers, transition flows, constants.

The filter covariance flows along dQ/dt = Ricc(Q) = AQ + QA^T + Sigma_B
- Q H^T H Q.  Its steady state Sigma_inf, the closed-loop matrix
F_inf = A - Sigma_inf H^T H, and the square-root generator
A - Q H^T H / 2 drive every stability estimate in the package, so they are
computed here once and carried around as :class:`StabilityConstants`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm, solve_continuous_are, solve_continuous_lyapunov

from .linmodel import (
    AssumptionError,
    ModelParams,
    TimeGrid,
    symmetrize,
    validate_assumptions,
)

__all__ = [
    "RiccatiError",
    "CovarianceStepError",
    "DegenerateInitialCovariance",
    "AreConvergenceError",
    "PathCoverageError",
    "StabilityConstants",
    "ricc_rhs",
    "sqrt_ricc",
    "integrate_dre",
    "explicit_dre_solution",
    "solve_are",
    "transition_segments",
    "spectral_norm",
]


class RiccatiError(RuntimeError):
    pass


class CovarianceStepError(RiccatiError):
    """An integration step lost positive semi-definiteness; reduce dt."""


class DegenerateInitialCovariance(RiccatiError):
    """Sigma0 - Sigma_inf is singular but nonzero, so the closed-form DRE
    solution is undefined for this initial condition."""


class AreConvergenceError(RiccatiError):
    """The ARE solve failed, or its solution failed the residual,
    definiteness or Hurwitz check."""


class PathCoverageError(RiccatiError):
    """The supplied covariance path does not cover the requested [s, t]."""


# Matrix RK4 steps per batched PSD check (one eigvalsh call per chunk).
_PSD_CHUNK = 256


def spectral_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(np.atleast_2d(M), 2))


def _ricc(Q: np.ndarray, A: np.ndarray, Sigma_B: np.ndarray, HtH: np.ndarray) -> np.ndarray:
    AQ = A @ Q
    return AQ + AQ.T + Sigma_B - Q @ HtH @ Q


def ricc_rhs(Q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Riccati vector field AQ + QA^T + Sigma_B - Q H^T H Q."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    d = params.d
    if Q.shape != (d, d):
        raise ValueError(f"Q has shape {Q.shape}, expected {(d, d)}")
    return _ricc(Q, params.A, params.Sigma_B, params.H.T @ params.H)


def sqrt_ricc(Q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Square-root Riccati generator A - Q H^T H / 2 (not symmetric in general)."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    d = params.d
    if Q.shape != (d, d):
        raise ValueError(f"Q has shape {Q.shape}, expected {(d, d)}")
    return params.A - 0.5 * Q @ (params.H.T @ params.H)


def integrate_dre(Sigma0: np.ndarray, params: ModelParams, grid: TimeGrid) -> np.ndarray:
    """Deterministic RK4 integration of the DRE on the grid.

    Returns the array of covariances, shape (n_steps + 1, d, d).  Every
    iterate is symmetrized; if an iterate develops an eigenvalue below
    -1e-10 * scale the step size is too large and the run is refused.
    Iterates are checked ``_PSD_CHUNK`` steps at a time with one batched
    ``eigvalsh``, so the first bad step is refused by number, as a check
    after every step would; steps after it overflow silently.  An iterate
    that is not finite is not checked.
    A 1x1 model steps on Python floats, with the operations of the matrix
    branch in the same order, so to the same bits.
    """
    d = params.d
    Q = symmetrize(np.atleast_2d(np.asarray(Sigma0, dtype=float)))
    if Q.shape != (d, d):
        raise ValueError(f"Sigma0 has shape {Q.shape}, expected {(d, d)}")
    A, Sigma_B, HtH = params.A, params.Sigma_B, params.H.T @ params.H
    dt = grid.dt
    out = np.empty((grid.n_steps + 1, d, d))
    out[0] = Q
    if params.is_scalar:
        out[1:, 0, 0] = _integrate_dre_scalar(
            float(Q[0, 0]), float(A[0, 0]), float(Sigma_B[0, 0]), float(HtH[0, 0]), dt,
            grid.n_steps,
        )
        return out
    for lo in range(0, grid.n_steps, _PSD_CHUNK):
        hi = min(lo + _PSD_CHUNK, grid.n_steps)
        # a path that blows up after its bad step must be refused, not warned of
        with np.errstate(over="ignore", invalid="ignore"):
            _dre_steps(out, lo, hi, A, Sigma_B, HtH, dt)
        block = out[lo + 1 : hi + 1]
        finite = np.isfinite(block).all(axis=(-2, -1))
        block = np.where(finite[:, None, None], block, 0.0)
        w_min = np.linalg.eigvalsh(block).min(axis=-1)
        bad = np.flatnonzero(w_min < -1e-10 * np.maximum(1.0, np.abs(block).max(axis=(-2, -1))))
        stop = hi if bad.size == 0 else lo + 1 + int(bad[0])
        if not finite[: stop - lo].all():
            # the path left the finite numbers before any bad step: step
            # again under the caller's floating-point settings, which warn
            # as a step-by-step check would, to the same bits
            _dre_steps(out, lo, stop, A, Sigma_B, HtH, dt)
        if bad.size:
            raise CovarianceStepError(
                f"covariance lost PSD at step {stop} (min eig {float(w_min[bad[0]]):.3e}); "
                f"dt={dt} is too large for this model"
            )
    return out


def _dre_steps(out, lo, hi, A, Sigma_B, HtH, dt) -> None:
    """RK4 iterates lo + 1 .. hi of the matrix DRE into ``out``, from out[lo]."""
    Q = out[lo]
    for k in range(lo, hi):
        k1 = _ricc(Q, A, Sigma_B, HtH)
        k2 = _ricc(Q + 0.5 * dt * k1, A, Sigma_B, HtH)
        k3 = _ricc(Q + 0.5 * dt * k2, A, Sigma_B, HtH)
        k4 = _ricc(Q + dt * k3, A, Sigma_B, HtH)
        Q = symmetrize(Q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        out[k + 1] = Q


def _integrate_dre_scalar(q: float, a: float, sb: float, h2: float, dt: float, n: int) -> list:
    """The n RK4 iterates after q of :func:`integrate_dre` on a 1x1 model."""

    def ricc(q):
        aq = a * q
        return aq + aq + sb - (q * h2) * q

    path = []
    for k in range(n):
        k1 = ricc(q)
        k2 = ricc(q + 0.5 * dt * k1)
        k3 = ricc(q + 0.5 * dt * k2)
        k4 = ricc(q + dt * k3)
        q = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        q = 0.5 * (q + q)
        if q < -1e-10 * max(1.0, abs(q)):
            raise CovarianceStepError(
                f"covariance lost PSD at step {k + 1} (min eig {q:.3e}); "
                f"dt={dt} is too large for this model"
            )
        path.append(q)
    return path


@dataclass(frozen=True, eq=False)
class StabilityConstants:
    """Steady-state quantities and decay constants for a model.

    sigma_inf is the stabilizing solution of the ARE Ricc(Sigma) = 0 and
    are_residual its Frobenius residual ||Ricc(sigma_inf)||_F;
    f_inf = A - sigma_inf H^T H, lambda0 is the spectral-abscissa margin of
    f_inf, beta = lmin(Sigma_B) / (2 lmax(sigma_inf)), and
    alpha = exp(sqrt(cond) * m1_hat * ||H^T H|| / (2 beta)) * sqrt(cond),
    which is inf when beta = 0 (A2 fails) or the exponent leaves the float
    range, as it does for ill-conditioned sigma_inf.
    m1_hat is the fitted envelope constant sup_t ||Sigma_t - sigma_inf||
    * exp(2 * lambda_fit * t) with lambda_fit = 0.9 * lambda0, fitted on the
    DRE path from the model prior over [0, fit_T] at step fit_dt
    (fit_dt = 1e-3, fit_T = max(5, round(8 / lambda0, 3))).
    """

    sigma_inf: np.ndarray
    f_inf: np.ndarray
    lambda0: float
    beta: float
    alpha: float
    m1_hat: float
    are_residual: float
    lambda_fit: float
    fit_T: float
    fit_dt: float

    def to_text(self) -> str:
        def fmt(M):
            return "[" + "; ".join(
                " ".join(repr(float(v)) for v in row) for row in np.atleast_2d(M)
            ) + "]"

        lines = [
            f"sigma_inf = {fmt(self.sigma_inf)}",
            f"f_inf = {fmt(self.f_inf)}",
            f"lambda0 = {self.lambda0!r}",
            f"beta = {self.beta!r}",
            f"alpha = {self.alpha!r}",
            f"m1_hat = {self.m1_hat!r}",
            f"are_residual = {self.are_residual!r}",
            f"lambda_fit = {self.lambda_fit!r}",
            f"fit_T = {self.fit_T!r}",
            f"fit_dt = {self.fit_dt!r}",
        ]
        return "\n".join(lines) + "\n"


def solve_are(params: ModelParams) -> StabilityConstants:
    """Solve Ricc(Sigma) = 0 and assemble the stability constants.

    The stabilizing solution comes from scipy's Schur-method
    ``solve_continuous_are`` (the filter ARE is the control ARE of
    (A^T, H^T) with weights Sigma_B and I_m).  It is then checked:
    ||Ricc(Sigma)||_F <= 1e-8 * (1 + ||Sigma||_F), Sigma positive definite
    and f_inf Hurwitz; a failed check or a failed solve raises
    :class:`AreConvergenceError`.  A1 is required.
    """
    report = validate_assumptions(params)
    if not report.a1:
        raise AssumptionError(
            "ARE solve requires detectability and stabilizability (A1); "
            f"detectable={report.detectable}, stabilizable={report.stabilizable}"
        )
    HtH = params.H.T @ params.H
    try:
        sigma_inf = symmetrize(
            solve_continuous_are(params.A.T, params.H.T, params.Sigma_B, np.eye(params.m))
        )
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise AreConvergenceError(f"ARE solve failed: {exc}") from exc
    are_residual = float(np.linalg.norm(ricc_rhs(sigma_inf, params), "fro"))
    tol = 1e-8 * (1.0 + float(np.linalg.norm(sigma_inf, "fro")))
    if not are_residual <= tol:
        raise AreConvergenceError(f"ARE residual {are_residual:.3e} above tolerance {tol:.3e}")
    w = np.linalg.eigvalsh(sigma_inf)
    if w.min() <= 0.0:
        raise AreConvergenceError(f"ARE solution not positive definite (min eig {w.min():.3e})")
    f_inf = params.A - sigma_inf @ HtH
    lambda0 = float(np.min(-np.linalg.eigvals(f_inf).real))
    if lambda0 <= 0.0:
        raise AreConvergenceError(f"closed-loop matrix not Hurwitz (margin {lambda0:.3e})")
    beta = float(np.linalg.eigvalsh(params.Sigma_B).min() / (2.0 * w.max()))

    lambda_fit = 0.9 * lambda0
    fit_grid = TimeGrid(T=max(5.0, round(8.0 / lambda0, 3)), dt=1e-3)
    path = integrate_dre(params.Sigma0, params, fit_grid)
    norms = np.linalg.norm(path - sigma_inf, 2, axis=(1, 2))
    m1_hat = float(np.max(norms * np.exp(2.0 * lambda_fit * fit_grid.times())))

    cond = float(w.max() / w.min())
    with np.errstate(over="ignore", divide="ignore"):  # a vacuous envelope: alpha = inf
        alpha = float(
            np.exp(np.sqrt(cond) * m1_hat * spectral_norm(HtH) / (2.0 * beta))
            * np.sqrt(cond)
        )
    return StabilityConstants(
        sigma_inf=sigma_inf,
        f_inf=f_inf,
        lambda0=lambda0,
        beta=beta,
        alpha=alpha,
        m1_hat=m1_hat,
        are_residual=are_residual,
        lambda_fit=lambda_fit,
        fit_T=fit_grid.T,
        fit_dt=fit_grid.dt,
    )


def explicit_dre_solution(
    Sigma0: np.ndarray,
    consts: StabilityConstants,
    params: ModelParams,
    t: float,
) -> np.ndarray:
    """Closed-form DRE solution at time t.

    Sigma_t = Sigma_inf + e^{F t} D_t^{-1} e^{F^T t} with F = f_inf and
    D_t = (Sigma0 - Sigma_inf)^{-1} + int_0^t e^{F^T s} H^T H e^{F s} ds.
    F is Hurwitz, so the observability Gramian in D_t is X - e^{F^T t} X e^{F t}
    with F^T X + X F = -H^T H; the matrix exponential is evaluated by
    scaling and squaring.

    Sigma0 = Sigma_inf returns the equilibrium directly; a singular but
    nonzero Sigma0 - Sigma_inf is refused (the formula is undefined there).
    """
    if t < 0.0:
        raise ValueError("t must be non-negative")
    Sigma0 = symmetrize(np.atleast_2d(np.asarray(Sigma0, dtype=float)))
    Sinf = consts.sigma_inf
    F = consts.f_inf
    delta = Sigma0 - Sinf
    scale = max(1.0, float(np.abs(Sinf).max()))
    w_delta = np.linalg.eigvalsh(delta)
    if np.abs(w_delta).max() <= 1e-12 * scale:
        return Sinf.copy()
    if np.abs(w_delta).min() <= 1e-12 * np.abs(w_delta).max():
        raise DegenerateInitialCovariance(
            "Sigma0 - Sigma_inf is singular but nonzero; the closed-form "
            f"solution is undefined (eigenvalues {w_delta.tolist()})"
        )
    X = solve_continuous_lyapunov(F.T, -(params.H.T @ params.H))
    Et = expm(F * t)
    D = np.linalg.inv(delta) + (X - Et.T @ X @ Et)
    return symmetrize(Sinf + Et @ np.linalg.inv(D) @ Et.T)


def transition_segments(
    c: float, idx: Sequence[int], q_path: np.ndarray, params: ModelParams, grid: TimeGrid
) -> list[np.ndarray]:
    """Transition matrices of dM/dt = (A - c Q_t H^T H) M between consecutive
    node indices: entry j maps grid node idx[j] to node idx[j + 1].

    c = 1 gives the filter flow Phi and c = 1/2 the square-root flow Psi.
    One RK4 pass runs from idx[0] to idx[-1], with the generator at
    midpoints taken from linear interpolation of the supplied path, and
    restarts from the identity at every node.  Per-step transition matrices
    therefore compose exactly on grid nodes, and the flow from idx[i] to
    idx[j] is the product of entries j-1, ..., i.
    """
    idx = [int(k) for k in idx]
    if idx[0] < 0 or any(b < a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"node indices must be non-negative and non-decreasing, got {idx}")
    q_path = np.asarray(q_path, dtype=float)
    if q_path.ndim != 3 or q_path.shape[0] < idx[-1] + 1:
        raise PathCoverageError(
            f"covariance path of length {q_path.shape[0]} does not cover grid index {idx[-1]}"
        )
    A = params.A
    HtH = params.H.T @ params.H
    dt = grid.dt
    segments = []
    for a, b in zip(idx, idx[1:]):
        M = np.eye(params.d)
        G1 = A - (c * q_path[a]) @ HtH
        for k in range(a, b):
            G0, G1 = G1, A - (c * q_path[k + 1]) @ HtH
            Gm = 0.5 * (G0 + G1)
            k1 = G0 @ M
            k2 = Gm @ (M + 0.5 * dt * k1)
            k3 = Gm @ (M + 0.5 * dt * k2)
            k4 = G1 @ (M + dt * k3)
            M = M + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        segments.append(M)
    return segments
