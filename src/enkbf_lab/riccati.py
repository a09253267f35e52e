"""Riccati machinery: vector fields, DRE/ARE solvers, transition flows, constants.

The filter covariance flows along dQ/dt = Ricc(Q) = AQ + QA^T + Sigma_B
- Q H^T H Q.  Its steady state Sigma_inf, the closed-loop matrix
F_inf = A - Sigma_inf H^T H, and the square-root generator
A - Q H^T H / 2 drive every stability estimate in the package, so they are
computed here once and carried around as :class:`StabilityConstants`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, IO, Sequence, Union

import numpy as np
from scipy.linalg import expm

from .linmodel import (
    AssumptionError,
    ModelParams,
    TimeGrid,
    symmetrize,
    text_sink,
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
    "dre_step_rk4",
    "integrate_dre",
    "explicit_dre_solution",
    "solve_are",
    "transition_phi",
    "transition_psi",
    "transition_phi_scan",
    "transition_psi_scan",
    "fit_envelope_constant",
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
    def __init__(self, message: str, residual_history: Sequence[float]):
        super().__init__(f"{message}; residual history {list(residual_history)}")
        self.residual_history = list(residual_history)


class PathCoverageError(RiccatiError):
    """The supplied covariance path does not cover the requested [s, t]."""


def spectral_norm(M: np.ndarray) -> float:
    M = np.atleast_2d(M)
    if M.shape == (1, 1):
        return abs(float(M[0, 0]))
    return float(np.linalg.norm(M, 2))


def ricc_rhs(Q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Riccati vector field AQ + QA^T + Sigma_B - Q H^T H Q."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    d = params.d
    if Q.shape != (d, d):
        raise ValueError(f"Q has shape {Q.shape}, expected {(d, d)}")
    HtH = params.H.T @ params.H
    AQ = params.A @ Q
    return AQ + AQ.T + params.Sigma_B - Q @ HtH @ Q


def sqrt_ricc(Q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Square-root Riccati generator A - Q H^T H / 2 (not symmetric in general)."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    d = params.d
    if Q.shape != (d, d):
        raise ValueError(f"Q has shape {Q.shape}, expected {(d, d)}")
    return params.A - 0.5 * Q @ (params.H.T @ params.H)


def dre_step_rk4(Q: np.ndarray, dt: float, params: ModelParams) -> np.ndarray:
    """One classical RK4 step of the DRE, symmetrized."""
    k1 = ricc_rhs(Q, params)
    k2 = ricc_rhs(Q + 0.5 * dt * k1, params)
    k3 = ricc_rhs(Q + 0.5 * dt * k2, params)
    k4 = ricc_rhs(Q + dt * k3, params)
    return symmetrize(Q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def integrate_dre(
    Sigma0: np.ndarray,
    params: ModelParams,
    grid: TimeGrid,
    check_psd: bool = True,
) -> np.ndarray:
    """Deterministic RK4 integration of the DRE on the grid.

    Returns the array of covariances, shape (n_steps + 1, d, d).  Every
    iterate is symmetrized; if an iterate develops an eigenvalue below
    -1e-10 * scale the step size is too large and the run is refused.
    """
    d = params.d
    Q = symmetrize(np.atleast_2d(np.asarray(Sigma0, dtype=float)))
    if Q.shape != (d, d):
        raise ValueError(f"Sigma0 has shape {Q.shape}, expected {(d, d)}")
    out = np.empty((grid.n_steps + 1, d, d))
    out[0] = Q
    for k in range(grid.n_steps):
        Q = dre_step_rk4(Q, grid.dt, params)
        if check_psd:
            w_min = float(np.linalg.eigvalsh(Q).min())
            if w_min < -1e-10 * max(1.0, float(np.abs(Q).max())):
                raise CovarianceStepError(
                    f"covariance lost PSD at step {k + 1} (min eig {w_min:.3e}); "
                    f"dt={grid.dt} is too large for this model"
                )
        out[k + 1] = Q
    return out


@dataclass(frozen=True, eq=False)
class StabilityConstants:
    """Steady-state quantities and decay constants for a model.

    sigma_inf solves the ARE, f_inf = A - sigma_inf H^T H, lambda0 is the
    spectral-abscissa margin of f_inf, beta = lmin(Sigma_B) / (2 lmax(sigma_inf)),
    and alpha = exp(sqrt(cond) * m1_hat * ||H^T H|| / (2 beta)) * sqrt(cond).
    m1_hat is the fitted envelope constant sup_t ||Sigma_t - sigma_inf||
    * exp(2 * lambda_fit * t) with lambda_fit = 0.9 * lambda0, fitted on the
    DRE path from the model prior over [0, fit_T] at step fit_dt.
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

    def write_text(self, dest: Union[str, IO[str]]) -> None:
        with text_sink(dest) as fh:
            fh.write(self.to_text())


def _solve_lyapunov(F: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Solve F X + X F^T = R by Kronecker vectorization (small d only)."""
    d = F.shape[0]
    I = np.eye(d)
    K = np.kron(F, I) + np.kron(I, F)
    x = np.linalg.solve(K, R.reshape(-1))
    return x.reshape(d, d)


def solve_are(
    params: ModelParams,
    *,
    residual_tol: float = 1e-8,
    burn_dt: float = 1e-2,
    burn_max_T: float = 400.0,
    newton_max: int = 60,
    fit_dt: float = 1e-3,
    fit_T: float | None = None,
) -> StabilityConstants:
    """Solve Ricc(Sigma) = 0 and assemble the stability constants.

    Method: integrate the DRE from the identity until the residual stalls,
    then polish with Newton steps, each solving the Lyapunov equation
    F_k D + D F_k^T = -Ricc(Q_k) with F_k = A - Q_k H^T H.  Convergence
    target is ||Ricc(Sigma)||_F <= residual_tol * (1 + ||Sigma||_F).
    """
    report = validate_assumptions(params)
    if not report.a1:
        raise AssumptionError(
            "ARE solve requires detectability and stabilizability (A1); "
            f"detectable={report.detectable}, stabilizable={report.stabilizable}"
        )
    d = params.d
    HtH = params.H.T @ params.H

    def residual(Q):
        return float(np.linalg.norm(ricc_rhs(Q, params), "fro"))

    # Burn-in: follow the flow from the identity until progress stalls.
    Q = np.eye(d)
    t = 0.0
    prev = residual(Q)
    while t < burn_max_T:
        for _ in range(100):
            Q = dre_step_rk4(Q, burn_dt, params)
        t += 100 * burn_dt
        res = residual(Q)
        if res < 1e-6 or res > 0.99 * prev:
            break
        prev = res

    history = [residual(Q)]
    tol = residual_tol * (1.0 + float(np.linalg.norm(Q, "fro")))
    for _ in range(newton_max):
        R = ricc_rhs(Q, params)
        res = float(np.linalg.norm(R, "fro"))
        history.append(res)
        tol = residual_tol * (1.0 + float(np.linalg.norm(Q, "fro")))
        if res <= tol * 1e-4:
            break  # already at the noise floor
        F = params.A - Q @ HtH
        try:
            delta = _solve_lyapunov(F, -R)
        except np.linalg.LinAlgError as exc:
            raise AreConvergenceError(f"Newton Lyapunov solve failed: {exc}", history)
        Q = symmetrize(Q + delta)
        if len(history) > 3 and history[-1] > tol and history[-1] > 10.0 * history[-3]:
            raise AreConvergenceError("Newton iteration diverged", history)
    final_res = residual(Q)
    if final_res > tol:
        raise AreConvergenceError(
            f"ARE residual {final_res:.3e} above tolerance {tol:.3e} "
            f"after {newton_max} Newton steps",
            history,
        )

    sigma_inf = symmetrize(Q)
    w = np.linalg.eigvalsh(sigma_inf)
    if w.min() <= 0.0:
        raise AreConvergenceError(
            f"ARE solution not positive definite (min eig {w.min():.3e})", history
        )
    f_inf = params.A - sigma_inf @ HtH
    lambda0 = float(np.min(-np.linalg.eigvals(f_inf).real))
    if lambda0 <= 0.0:
        raise AreConvergenceError(
            f"closed-loop matrix not Hurwitz (margin {lambda0:.3e})", history
        )
    beta = float(np.linalg.eigvalsh(params.Sigma_B).min() / (2.0 * w.max()))

    lambda_fit = 0.9 * lambda0
    if fit_T is None:
        fit_T = max(5.0, round(8.0 / lambda0, 3))
    fit_grid = TimeGrid(T=fit_T, dt=fit_dt)
    path = integrate_dre(params.Sigma0, params, fit_grid)
    gaps = path - sigma_inf
    if d == 1:
        norms = np.abs(gaps[:, 0, 0])
    else:
        norms = np.linalg.norm(gaps, 2, axis=(1, 2))
    m1_hat = float(np.max(norms * np.exp(2.0 * lambda_fit * fit_grid.times())))

    cond = float(w.max() / w.min())
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
        are_residual=final_res,
        lambda_fit=lambda_fit,
        fit_T=float(fit_T),
        fit_dt=float(fit_dt),
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
    X = _solve_lyapunov(F.T, -(params.H.T @ params.H))
    Et = expm(F * t)
    D = np.linalg.inv(delta) + (X - Et.T @ X @ Et)
    return symmetrize(Sinf + Et @ np.linalg.inv(D) @ Et.T)


def _transition_scan(
    gen_of_Q: Callable[[np.ndarray], np.ndarray],
    s: float,
    t_list: Sequence[float],
    q_path: np.ndarray,
    params: ModelParams,
    grid: TimeGrid,
) -> list[np.ndarray]:
    """Integrate dM/dt = G(Q_t) M from the identity at s, recording at t_list.

    RK4 with the generator at midpoints taken from linear interpolation of
    the supplied path; per-step transition matrices therefore compose
    exactly on grid nodes.
    """
    i0 = grid.index_of(s)
    targets = sorted(grid.index_of(t) for t in t_list)
    if targets and targets[0] < i0:
        raise ValueError("every t must satisfy t >= s")
    q_path = np.asarray(q_path, dtype=float)
    if q_path.ndim != 3 or (targets and q_path.shape[0] < targets[-1] + 1):
        raise PathCoverageError(
            f"covariance path of length {q_path.shape[0]} does not cover "
            f"grid index {targets[-1] if targets else i0}"
        )
    d = params.d
    dt = grid.dt
    M = np.eye(d)
    out: dict[int, np.ndarray] = {}
    if targets and targets[0] == i0:
        out[i0] = M.copy()
    end = targets[-1] if targets else i0
    want = set(targets)
    for k in range(i0, end):
        G0 = gen_of_Q(q_path[k])
        G1 = gen_of_Q(q_path[k + 1])
        Gm = 0.5 * (G0 + G1)
        k1 = G0 @ M
        k2 = Gm @ (M + 0.5 * dt * k1)
        k3 = Gm @ (M + 0.5 * dt * k2)
        k4 = G1 @ (M + dt * k3)
        M = M + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) in want:
            out[k + 1] = M.copy()
    return [out[grid.index_of(t)] for t in t_list]


def _phi_generator(params: ModelParams) -> Callable[[np.ndarray], np.ndarray]:
    HtH = params.H.T @ params.H
    A = params.A
    return lambda Q: A - Q @ HtH


def _psi_generator(params: ModelParams) -> Callable[[np.ndarray], np.ndarray]:
    HtH = params.H.T @ params.H
    A = params.A
    return lambda Q: A - 0.5 * Q @ HtH


def transition_phi(
    s: float, t: float, sigma_path: np.ndarray, params: ModelParams, grid: TimeGrid
) -> np.ndarray:
    """Transition matrix of dPhi/dt = (A - Sigma_t H^T H) Phi, Phi_{s,s} = I."""
    return _transition_scan(_phi_generator(params), s, [t], sigma_path, params, grid)[0]


def transition_psi(
    s: float, t: float, q_path: np.ndarray, params: ModelParams, grid: TimeGrid
) -> np.ndarray:
    """Transition matrix of dPsi/dt = (A - Q_t H^T H / 2) Psi, Psi_{s,s} = I."""
    return _transition_scan(_psi_generator(params), s, [t], q_path, params, grid)[0]


def transition_phi_scan(
    s: float, t_list: Sequence[float], sigma_path: np.ndarray, params: ModelParams, grid: TimeGrid
) -> list[np.ndarray]:
    """transition_phi evaluated at several end times in one integration pass."""
    return _transition_scan(_phi_generator(params), s, t_list, sigma_path, params, grid)


def transition_psi_scan(
    s: float, t_list: Sequence[float], q_path: np.ndarray, params: ModelParams, grid: TimeGrid
) -> list[np.ndarray]:
    """transition_psi evaluated at several end times in one integration pass."""
    return _transition_scan(_psi_generator(params), s, t_list, q_path, params, grid)


def fit_envelope_constant(
    norms: Sequence[float], gaps: Sequence[float], rate: float
) -> float:
    """Smallest kappa with norm <= kappa * exp(-rate * gap) over all samples."""
    norms = np.asarray(norms, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if norms.shape != gaps.shape or norms.size == 0:
        raise ValueError("norms and gaps must be equal-length, non-empty")
    return float(np.max(norms * np.exp(rate * gaps)))
