"""Error functionals, theoretical bound constants, Wasserstein distance, rate fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linmodel import ModelParams, psd_sqrt, symmetrize
from .riccati import StabilityConstants

__all__ = [
    "double_factorial",
    "TheoreticalBounds",
    "theoretical_bounds",
    "gaussian_w2",
    "folded_normal_mean",
    "TrialRow",
    "CurvePoint",
    "RateFit",
    "mse_curve",
    "rate_fit",
    "line_fit",
    "InsufficientTrialsError",
    "QUANTITIES",
]


class InsufficientTrialsError(ValueError):
    pass


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ...; n in {0, 1} gives the empty product 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out = 1
    k = int(n)
    while k >= 2:
        out *= k
        k -= 2
    return out


@dataclass(frozen=True)
class TheoreticalBounds:
    """Closed-form constants bounding the finite-N errors (scalar model).

    The covariance error satisfies E|S_t - Sigma_t|^{2p} ^ (1/p)
    <= (C1 e^{-2 beta t} + C2) / N, the mean error
    E|m^(N) - m|^2 <= (Sigma0 e^{-2 mu t} + C3) / N, and the particle
    coupling gap E|X^i - Xbar^i|^2 <= C4 / N.
    """

    p: int
    C1: float
    C2: float
    C3: float
    C4: float
    beta: float
    mu_A: float

    def cov_bound(self, t: float, N: int) -> float:
        return (self.C1 * math.exp(-2.0 * self.beta * t) + self.C2) / N


def theoretical_bounds(
    params: ModelParams, consts: StabilityConstants, p: int
) -> TheoreticalBounds:
    """Evaluate C1..C4 from the model data and fitted stability constants.

    Only defined for the scalar model (d = m = 1) with mu(A) > 0.
    """
    if params.d != 1 or params.m != 1:
        raise ValueError("theoretical bounds are defined for the scalar model only")
    if p < 1:
        raise ValueError("moment order p must be a positive integer")
    mu_A = float(np.min(-np.linalg.eigvals(params.A).real))
    if mu_A <= 0.0:
        raise ValueError(f"mu(A) = {mu_A} must be positive (asymptotic stability)")
    beta = consts.beta
    sigma0 = float(params.Sigma0[0, 0])
    sigma_inf = float(consts.sigma_inf[0, 0])
    h2 = float(params.H[0, 0]) ** 2
    sigma_b = float(params.Sigma_B[0, 0])
    a4 = consts.alpha**4
    C1 = 2.0 * a4 * sigma0**2 * double_factorial(2 * p - 1) ** (1.0 / p)
    C2 = 4.0 * (2 * p - 1) * a4 * sigma_inf * (sigma0 + sigma_inf)
    C3 = ((C1 + C2) * h2 + sigma_b) / (2.0 * mu_A)
    C4 = (
        2.0 * C3
        + 4.0 * sigma0
        + math.sqrt(3.0) * h2**2 * (sigma0 + sigma_inf) * (C1 + C2) / mu_A**2
        + 2.0 * sigma_b / mu_A
    )
    return TheoreticalBounds(
        p=int(p), C1=C1, C2=C2, C3=C3, C4=C4, beta=beta, mu_A=mu_A
    )


def gaussian_w2(m1, S1, m2, S2) -> float:
    """L2-Wasserstein distance between N(m1, S1) and N(m2, S2).

    W2^2 = |m1 - m2|^2 + tr(S1 + S2 - 2 (S2^{1/2} S1 S2^{1/2})^{1/2}).
    Matrix square roots use symmetric eigendecompositions with eigenvalues
    clamped at zero, since PSD inputs may carry tiny negative roundoff.
    """
    m1 = np.atleast_1d(np.asarray(m1, dtype=float))
    m2 = np.atleast_1d(np.asarray(m2, dtype=float))
    S1 = symmetrize(np.atleast_2d(np.asarray(S1, dtype=float)))
    S2 = symmetrize(np.atleast_2d(np.asarray(S2, dtype=float)))
    if m1.shape != m2.shape or S1.shape != S2.shape:
        raise ValueError("dimension mismatch between the two Gaussians")
    for S in (S1, S2):
        w = np.linalg.eigvalsh(S)
        if w.min() < -1e-8 * max(1.0, float(w.max())):
            raise ValueError(f"covariance is not PSD (min eig {w.min():.3e})")
    if np.array_equal(m1, m2) and np.array_equal(S1, S2):
        return 0.0  # identity of indiscernibles, exactly
    root2 = psd_sqrt(S2)
    cross = psd_sqrt(symmetrize(root2 @ S1 @ root2))
    w2_sq = float(np.sum((m1 - m2) ** 2) + np.trace(S1 + S2 - 2.0 * cross))
    return math.sqrt(max(w2_sq, 0.0))


def folded_normal_mean(mu: float, var: float) -> float:
    """E|X| for X ~ N(mu, var); the exact conditional expectation of |x|
    under a Gaussian posterior."""
    if var < 0.0:
        raise ValueError("variance must be non-negative")
    if var == 0.0:
        return abs(mu)
    sigma = math.sqrt(var)
    z = mu / sigma
    return sigma * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * z * z) + mu * math.erf(
        z / math.sqrt(2.0)
    )


@dataclass(frozen=True)
class TrialRow:
    """One recorded scalar from one trial: (N, trial, t, quantity, value)."""

    N: int
    trial: int
    t: float
    quantity: str
    value: float

    def sort_key(self):
        return (self.N, self.trial, self.t, self.quantity)


@dataclass(frozen=True)
class CurvePoint:
    N: int
    estimate: float
    stderr: float
    stderr_low: float
    stderr_high: float


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log N, log error)."""

    points: tuple
    slope: float
    intercept: float
    r_squared: float


# Curve quantity -> (trial-row quantity, aggregation mode).  Raw values are
# stored per trial; the aggregation turns them into the Monte Carlo estimate.
QUANTITIES = {
    "cov_err_2p": ("cov_err", "moment_2p"),
    "mean_err": ("mean_err", "mean_square"),
    "particle_coupling": ("coupling_err", "mean"),
    "function_mc": ("func_gap_x", "mean"),
    "function_mc_abs": ("func_gap_absx", "mean"),
}
_QUANTITY_ID = {name: i for i, name in enumerate(sorted(QUANTITIES))}
_BOOT_ENTROPY = 0xB0075EED
_N_BOOT = 1000  # bootstrap resamples per curve point
_MIN_TRIALS = 30  # trials each N of a curve needs


def _estimate(values: np.ndarray, mode: str, p: int) -> np.ndarray:
    """Vectorized estimator over the last axis."""
    if mode == "moment_2p":
        return np.mean(values ** (2 * p), axis=-1) ** (1.0 / p)
    if mode == "mean_square":
        return np.mean(values**2, axis=-1)
    if mode == "mean":
        return np.mean(values, axis=-1)
    raise ValueError(f"unknown aggregation mode {mode!r}")


def mse_curve(
    records: Iterable[TrialRow],
    quantity: str,
    t: float,
    p: int = 1,
) -> list[CurvePoint]:
    """Monte Carlo error curve over N with bootstrap standard errors.

    Trials are resampled (``_N_BOOT`` = 1000 draws) at the trial level; the
    reported band is estimate +/- one bootstrap standard deviation.
    Requires at least one N, each with ``_MIN_TRIALS`` trials.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; one of {sorted(QUANTITIES)}")
    row_q, mode = QUANTITIES[quantity]
    groups: dict[int, list[tuple[int, float]]] = {}
    for row in records:
        if row.quantity == row_q and abs(row.t - t) <= 1e-9:
            groups.setdefault(row.N, []).append((row.trial, row.value))
    if not groups:
        raise InsufficientTrialsError(f"need at least one N for {quantity!r} at t={t}, found none")
    short = {N: len(v) for N, v in groups.items() if len(v) < _MIN_TRIALS}
    if short:
        raise InsufficientTrialsError(
            f"need at least {_MIN_TRIALS} trials per N, found {short}"
        )
    out = []
    for N in sorted(groups):
        vals = np.array([v for _, v in sorted(groups[N])], dtype=float)
        est = float(_estimate(vals, mode, p))
        ss = np.random.SeedSequence(
            entropy=_BOOT_ENTROPY,
            spawn_key=(_QUANTITY_ID[quantity], int(round(t * 1e6)), N),
        )
        rng = np.random.Generator(np.random.Philox(seed=ss))
        idx = rng.integers(0, vals.size, size=(_N_BOOT, vals.size))
        reps = _estimate(vals[idx], mode, p)
        stderr = float(reps.std(ddof=1))
        out.append(
            CurvePoint(
                N=N,
                estimate=est,
                stderr=stderr,
                stderr_low=est - stderr,
                stderr_high=est + stderr,
            )
        )
    return out


def rate_fit(curve: Sequence) -> RateFit:
    """Fit log(error) = slope * log(N) + intercept by least squares."""
    points = []
    for item in curve:
        if isinstance(item, CurvePoint):
            points.append((item.N, item.estimate))
        else:
            N, err = item
            points.append((int(N), float(err)))
    if len(points) < 3:
        raise ValueError("rate fit needs at least 3 points")
    if any(err <= 0.0 for _, err in points):
        raise ValueError("rate fit needs strictly positive error values")
    slope, intercept, r2 = line_fit(
        np.log([float(N) for N, _ in points]), np.log([err for _, err in points])
    )
    return RateFit(points=tuple(points), slope=slope, intercept=intercept, r_squared=r2)


def line_fit(x, y) -> tuple:
    """Least-squares line y = slope * x + intercept; returns (slope,
    intercept, r_squared), with r^2 = 1 for an exact fit to constant y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 1e-30:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)
