"""Experiment orchestration: configs, seed tree, trial execution, CSV outputs.

Each experiment is a named, seeded, reproducible run with configured
assertions; an experiment passes iff every assertion holds.  Blocks of
trials are the unit of parallelism, cut independently of the worker count,
and each trial derives its own streams from (master_seed, experiment, N,
trial), so results are byte-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import platform
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass
from functools import partial
from itertools import cycle, repeat
from multiprocessing import get_context
from pathlib import Path
import numpy as np
import scipy
from scipy.special import ndtr

from . import __version__
# The whole particle API stays reachable as harness attributes, which
# perfbench/tracing.py wraps to time each layer.
from .ensemble import (  # noqa: F401
    PURPOSE_INIT,
    PURPOSE_OBS_PERTURB,
    PURPOSE_PROCESS,
    STOCHASTIC_FPF,
    VariantParams,
    coupled_step,
    empirical_stats,
    ensemble_moments,
    fpf_step,
    init_coupled,
    init_ensemble,
    mean_field_copy_step,
    particle_increments,
    particle_normals,
    particle_obs_perturbations,
    particle_process_noise,
    particle_step,
    prior_states,
)
from .kalman import FilterState, kb_filter
from .linmodel import (
    STREAM_COPIES,
    STREAM_OBS,
    STREAM_PARTICLE,
    STREAM_TRUTH,
    AssumptionError,
    ModelParams,
    NoiseBundle,
    TimeGrid,
    psd_sqrt,
    simulate_observations,
    simulate_truth,
    validate_assumptions,
)
from .metrics import (
    RateFit,
    TrialRow,
    folded_normal_mean,
    gaussian_w2,
    line_fit,
    mse_curve,
    rate_fit,
    theoretical_bounds,
)
from .riccati import (
    StabilityConstants,
    explicit_dre_solution,
    fit_envelope_constant,
    integrate_dre,
    solve_are,
    spectral_norm,
    transition_segments,
)

__all__ = [
    "EXPERIMENTS",
    "AltInit",
    "ExperimentConfig",
    "AssertionOutcome",
    "ExperimentResult",
    "OutputDirConflict",
    "acceptance_model",
    "default_config",
    "diag2_model",
    "config_hash",
    "trial_bundle",
    "run_experiment",
    "run_riccati_validation",
    "run_exactness",
    "run_stability",
    "run_convergence",
    "run_chaos",
    "write_result",
    "load_result_summary",
    "DEFAULT_SEED",
    "SLOPE_BAND",
    "R2_MIN",
]

EXPERIMENTS = ("riccati_validation", "exactness", "stability", "convergence", "chaos")
# Internal sub-experiments get their own branch of the seed tree.
_EXP_ID = {name: i for i, name in enumerate(EXPERIMENTS)}
_EXP_ID["convergence_bias"] = len(EXPERIMENTS)
INIT_FAMILIES = ("gaussian", "exponential")

DEFAULT_SEED = 1618033988
SLOPE_BAND = (-1.3, -0.7)
R2_MIN = 0.9
# Mean squared errors at or below this (RMS 1e-12) are roundoff, not error.
_ROUNDOFF_MSE = 1e-24
# Increments one rate block may draw (12 MiB), unless one trial at the
# largest N takes more; see _blocks.
_BLOCK_NOISE_BYTES = 12_582_912


class OutputDirConflict(RuntimeError):
    """Refusing to overwrite a result directory produced by another config."""


def _integer(name: str, v) -> int:
    """``v`` as an int; a bool or a non-integer number is refused by name."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _real(name: str, v) -> float:
    """``v`` as a float; a bool or a non-number is refused by name."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {v!r}")
    return float(v)


@dataclass(frozen=True)
class AltInit:
    """Misspecified initial law for the stability experiment.

    ``family`` is "gaussian" or "exponential" (mean/variance matched); the
    scalar mean/var are broadcast over dimensions for vector models.
    """

    family: str = "gaussian"
    mean: float = 5.0
    var: float = 3.0

    def __post_init__(self):
        if self.family not in INIT_FAMILIES:
            raise ValueError(f"unknown init family {self.family!r}")
        for name in ("mean", "var"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.var < 0.0:
            raise ValueError("var must be non-negative")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    name: str
    model: ModelParams
    grid: TimeGrid
    N_list: tuple = ()
    n_trials: int = 200
    p: int = 1
    variant: VariantParams = STOCHASTIC_FPF
    master_seed: int = DEFAULT_SEED
    output_dir: str | None = None
    checkpoints: tuple = (1.0, 2.0, 5.0)
    n_copies: int = 100_000
    init_family: str = "gaussian"
    alt_init: AltInit = AltInit()
    record_every: int = 100
    w2_fit_window: tuple = (0.5, 5.0)
    psi_grid_points: int = 20
    psi_dt: float = 1e-3
    compare_stride_t: float = 0.05
    dt_bias_check: bool = False
    dt_bias_trials: int = 100
    workers: int = 1

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.name!r}; one of {EXPERIMENTS}")
        for name in _INT_FIELDS:
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not isinstance(self.dt_bias_check, bool):
            raise ValueError(f"dt_bias_check must be a bool, got {self.dt_bias_check!r}")
        N_list = tuple(_integer("N_list entry", N) for N in self.N_list)
        if sorted(set(N_list)) != sorted(N_list):
            raise ValueError("N_list must not contain duplicates")
        object.__setattr__(self, "N_list", tuple(sorted(N_list)))
        for name in ("checkpoints", "w2_fit_window"):
            object.__setattr__(self, name, tuple(_real(f"{name} entry", t)
                                                 for t in getattr(self, name)))
        for name in ("compare_stride_t", "psi_dt"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.n_trials < 1:
            raise ValueError("n_trials must be positive")
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a non-negative integer")
        for name, low in (("record_every", 1), ("n_copies", 2), ("workers", 1),
                          ("psi_grid_points", 2), ("dt_bias_trials", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        for name in ("compare_stride_t", "psi_dt"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        try:
            TimeGrid(T=self.grid.T, dt=self.psi_dt, t0=self.grid.t0)
        except ValueError as exc:
            raise ValueError(f"psi_dt={self.psi_dt} must divide the grid span: {exc}") from None
        if self.init_family not in INIT_FAMILIES:
            raise ValueError(
                f"init_family must be one of {INIT_FAMILIES}, got {self.init_family!r}"
            )
        for t in self.checkpoints:
            self.grid.index_of(t)  # must be grid nodes
        if self.name in ("convergence", "chaos"):
            if not self.N_list:
                raise ValueError(f"{self.name} requires a non-empty N_list")
            bad = [N for N in self.N_list if N <= 4 * self.p]
            if bad:
                raise ValueError(
                    f"{self.name} requires N > 4p = {4 * self.p} for every N; got {bad}"
                )
        if any(N < 2 for N in self.N_list):
            raise ValueError("every N must be at least 2")

    def to_json(self) -> dict:
        """Every field but the runtime knobs (output_dir, workers), which do
        not change the result; nested dataclasses become their init fields."""
        out = {}
        for f in fields(self):
            if f.name in _RUNTIME_FIELDS:
                continue
            v = getattr(self, f.name)
            if f.name == "model":
                v = v.to_config()
            elif is_dataclass(v):
                v = {g.name: getattr(v, g.name) for g in fields(v) if g.init}
            elif isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out

    @classmethod
    def from_json(cls, data: dict, **overrides) -> "ExperimentConfig":
        """Inverse of :meth:`to_json`; missing keys take the class defaults."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s) {unknown}")
        kwargs = {k: _DECODERS[k](v) if k in _DECODERS else v for k, v in data.items()}
        kwargs.update(overrides)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path, **overrides) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh), **overrides)


_RUNTIME_FIELDS = ("output_dir", "workers")
_INT_FIELDS = ("n_trials", "p", "master_seed", "n_copies", "record_every",
               "psi_grid_points", "dt_bias_trials", "workers")


_DECODERS = {
    "model": ModelParams.from_config,
    "grid": lambda d: TimeGrid(**d),
    "variant": lambda d: VariantParams(**d),
    "alt_init": lambda d: AltInit(**d),
}


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the science-relevant config fields (output dir and worker
    count do not change the result identity)."""
    canon = json.dumps(cfg.to_json(), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def acceptance_model() -> ModelParams:
    """Scalar reference model: a = -1, h = 1, sigma_b = 1, prior N(0, 1).

    Every stability constant has a closed form for this model, which makes
    it the default cross-checking target for all experiments."""
    return ModelParams.scalar(a=-1.0, h=1.0, sigma_b=1.0, m0=0.0, sigma0=1.0)


def diag2_model() -> ModelParams:
    """Decoupled 2x2 diagonal model whose ARE splits into scalar quadratics."""
    return ModelParams(
        A=np.diag([-1.0, -2.0]),
        H=np.eye(2),
        sigma_B=np.eye(2),
        m0=np.zeros(2),
        Sigma0=np.eye(2),
    )


def default_config(name: str, **overrides) -> ExperimentConfig:
    """Default, acceptance-scale configuration for a named experiment."""
    base = {
        "model": acceptance_model(),
        "master_seed": DEFAULT_SEED,
    }
    per_name = {
        "riccati_validation": {
            "grid": TimeGrid(T=5.0, dt=1e-4),
            "checkpoints": (),
        },
        "exactness": {
            "grid": TimeGrid(T=5.0, dt=1e-3),
            "n_copies": 100_000,
            "checkpoints": (1.0, 2.0, 5.0),
        },
        "stability": {
            "grid": TimeGrid(T=5.0, dt=1e-3),
            "n_copies": 4000,
            "checkpoints": (),
        },
        "convergence": {
            "grid": TimeGrid(T=5.0, dt=1e-3),
            "N_list": (50, 100, 200, 400, 800),
            "n_trials": 200,
            "checkpoints": (1.0, 2.0, 5.0),
            "dt_bias_check": True,
            "dt_bias_trials": 100,
        },
        "chaos": {
            "grid": TimeGrid(T=2.0, dt=1e-3),
            "N_list": (100, 200, 400, 800),
            "n_trials": 200,
            "checkpoints": (1.0, 2.0),
        },
    }
    if name not in per_name:
        raise ValueError(f"unknown experiment {name!r}")
    kwargs = {**base, **per_name[name], **overrides}
    return ExperimentConfig(name=name, **kwargs)


@dataclass(frozen=True)
class AssertionOutcome:
    name: str
    passed: bool
    detail: str


@dataclass(eq=False)
class ExperimentResult:
    config: ExperimentConfig
    rows: list = field(default_factory=list)
    curves: list = field(default_factory=list)  # (quantity, t, CurvePoint)
    fits: list = field(default_factory=list)  # (quantity, t, RateFit)
    constants: StabilityConstants | None = None
    assertions: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def fit(self, quantity: str, t: float) -> RateFit:
        for q, tt, f in self.fits:
            if q == quantity and abs(tt - t) <= 1e-9:
                return f
        raise KeyError(f"no fit for {quantity!r} at t={t}")

    def curve(self, quantity: str, t: float) -> list:
        pts = [c for q, tt, c in self.curves if q == quantity and abs(tt - t) <= 1e-9]
        if not pts:
            raise KeyError(f"no curve for {quantity!r} at t={t}")
        return pts


def _n_bundle(master_seed: int, name: str, N: int) -> NoiseBundle:
    """Parent of the trial bundles of one experiment at one N."""
    return NoiseBundle(master_seed, (_EXP_ID[name], N))


def trial_bundle(master_seed: int, name: str, N: int, trial: int) -> NoiseBundle:
    """Root noise bundle for one trial of one experiment."""
    return _n_bundle(master_seed, name, N).child(trial)


# ---------------------------------------------------------------------------
# trial runners (top level so worker processes can import them)


def _cov_err(S: np.ndarray, S_ref: np.ndarray) -> float:
    if S.shape == (1, 1):
        return abs(float(S[0, 0]) - float(S_ref[0, 0]))
    return float(np.linalg.norm(S - S_ref, "fro"))


def _mean_err(m: np.ndarray, m_ref: np.ndarray) -> float:
    return float(np.linalg.norm(m - m_ref))


def _pair_sum(fine: np.ndarray) -> np.ndarray:
    """Aggregate increments on a half-step grid (time axis 0) to the parent grid."""
    return fine[0::2] + fine[1::2]


def _pair_sums(fine: np.ndarray):
    """The rows of :func:`_pair_sum`, one step at a time, with the same
    bits and without a second copy of the increments."""
    return (fine[k] + fine[k + 1] for k in range(0, len(fine), 2))


def _particle_draws(plan: dict, kind: str, N: int, trials: range, grid: TimeGrid) -> tuple:
    """Initial states (B, N, d) and increments dB (n_steps, B, N, d_B) and
    dW (same with m; None unless gamma2 > 0) of a block of trials.
    Particle i of a trial draws from its ``trial_bundle(...).child(
    STREAM_PARTICLE)`` sub-streams, as :func:`init_ensemble` and
    :func:`particle_process_noise` would."""
    model = plan["model"]
    noise = _n_bundle(plan["master_seed"], kind, N)
    batch = (np.asarray(trials), STREAM_PARTICLE)
    x0 = prior_states(model, particle_normals(noise, N, PURPOSE_INIT, model.d, batch))
    dB = particle_increments(noise, N, grid, model.d_B, PURPOSE_PROCESS, batch)
    dW = None
    if plan["variant"].gamma2 > 0.0:
        dW = particle_increments(noise, N, grid, model.m, PURPOSE_OBS_PERTURB, batch)
    return x0, dB, dW


def _require_finite(where, k, *states) -> None:
    """Refuse non-finite states after step k.  ``where`` is (experiment, N,
    trials), the trials indexing the leading axis of each state array."""
    name, N, trials = where
    for s in states:
        if s is not None and not np.isfinite(s).all():
            bad = ~np.isfinite(s.reshape(len(trials), -1)).all(axis=1)
            raise FloatingPointError(
                f"{name}: non-finite state at N={N}, trial {trials[int(np.argmax(bad))]}, "
                f"step {k}"
            )


def _step_loop(model, grid, dZ, dB, ckpt_idx, where, x=None, variant=STOCHASTIC_FPF,
               dW=None, copies=None, kf_means=None, kf_covs=None):
    """The one Euler time loop: advance particles ``x`` (..., N, d) and
    mean-field copies (..., M, d), either optional, over ``grid`` with the
    same process increments, and yield (k, x, mean, cov, copies) after
    each step k in ``ckpt_idx``, mean and cov being the particles'
    empirical moments.

    Every per-step input is indexed by time first: dZ[k] (..., m) are the
    observation increments and kf_means[k] (..., d), kf_covs[k] (..., d, d)
    the exact filter moments that feed the copies.  dB and dW (None unless
    gamma2 > 0) yield one step's increments each, (..., N, d_B) and
    (..., N, m): a pre-drawn array, or a bulk stream drawn step by step.
    Particles take their moments every step; copies take none, so callers
    compute theirs at checkpoints only.

    Each population steps between two buffers of its own, so the loop
    allocates no state per step and never writes into the arrays it was
    given (one ``x0`` may start two loops, or be both ``x`` and
    ``copies``).  A yielded state is therefore valid only until the loop
    resumes.  At every checkpoint a non-finite state raises
    FloatingPointError naming ``where`` = (experiment, N, trials), the
    trial and the step.
    """
    dt = grid.dt
    mean = cov = None
    if x is not None:
        mean, cov = ensemble_moments(x)
        x_out = cycle((np.empty(x.shape), np.empty(x.shape)))
    if copies is not None:
        copies_out = cycle((np.empty(copies.shape), np.empty(copies.shape)))
    for k, dB_k, dW_k in zip(range(grid.n_steps), dB, repeat(None) if dW is None else dW):
        if x is not None:
            x = particle_step(x, mean, cov, dZ[k], dt, model, variant, dB=dB_k, dW=dW_k,
                              out=next(x_out))
            mean, cov = ensemble_moments(x)
        if copies is not None:
            copies = particle_step(
                copies, kf_means[k], kf_covs[k], dZ[k], dt, model, STOCHASTIC_FPF, dB=dB_k,
                out=next(copies_out),
            )
        if (k + 1) in ckpt_idx:
            _require_finite(where, k + 1, x, copies)
            yield k + 1, x, mean, cov, copies


def _observed(master_seed, kind, N, trial, model, grid, cov_path=None) -> tuple:
    """Observation record of one trial and the exact filter on it."""
    b = trial_bundle(master_seed, kind, N, trial)
    truth = simulate_truth(model, grid, b.child(STREAM_TRUTH))
    obs = simulate_observations(model, grid, truth, b.child(STREAM_OBS))
    return obs, kb_filter(model, grid, obs, cov_path=cov_path)


def _chaos_rows(N, trial, t, states, copies, m_ref, S_ref) -> list:
    gap = states - copies
    coupling = float(np.mean(np.sum(gap * gap, axis=1)))
    m_N = states.mean(axis=0)
    fx_gap = float(np.sum((m_N - m_ref) ** 2))
    rows = [
        TrialRow(N, trial, t, "coupling_err", coupling),
        TrialRow(N, trial, t, "func_gap_x", fx_gap),
    ]
    if states.shape[1] == 1:
        ref = folded_normal_mean(float(m_ref[0]), float(S_ref[0, 0]))
        emp = float(np.mean(np.abs(states[:, 0])))
        rows.append(TrialRow(N, trial, t, "func_gap_absx", (emp - ref) ** 2))
    return rows


def _rate_block(plan: dict, kind: str, N: int, trials: range) -> list:
    """Rows of a block of convergence or chaos trials, stepped together;
    chaos steps mean-field copies started at the particles alongside."""
    model, grid, variant = plan["model"], plan["grid"], plan["variant"]
    covs = plan["cov_path"]
    observed = [_observed(plan["master_seed"], kind, N, trial, model, grid, covs)
                for trial in trials]
    dZ = np.stack([obs for obs, _ in observed], axis=1)
    means = np.stack([fp.means for _, fp in observed], axis=1)
    x, dB, dW = _particle_draws(plan, kind, N, trials, grid)
    chaos = kind == "chaos"
    rows = []
    for k, x, mean, cov, copies in _step_loop(
        model, grid, dZ, dB, plan["ckpt_idx"], (kind, N, trials), x=x, variant=variant,
        dW=dW, copies=x if chaos else None, kf_means=means, kf_covs=covs,
    ):
        t = grid.t0 + k * grid.dt
        for j, trial in enumerate(trials):
            if chaos:
                rows.extend(_chaos_rows(N, trial, t, x[j], copies[j], means[k, j], covs[k]))
            else:
                rows.append(TrialRow(N, trial, t, "cov_err", _cov_err(cov[j], covs[k])))
                rows.append(TrialRow(N, trial, t, "mean_err", _mean_err(mean[j], means[k, j])))
    return rows


def _bias_block(plan: dict, kind: str, N: int, trials: range) -> list:
    """Coupled-refinement pairs: each trial at dt and at dt/2 sharing the
    same underlying Wiener paths and initial particles, isolating the
    discretization bias."""
    model, grid, variant = plan["model"], plan["grid"], plan["variant"]
    fine = grid.refined()
    obs_c, obs_f = [], []
    for trial in trials:
        b = trial_bundle(plan["master_seed"], kind, N, trial)
        tb = b.child(STREAM_TRUTH)
        dB_truth_f = tb.child(1).brownian(fine.n_steps, model.d_B, fine.dt)
        truth_f = simulate_truth(model, fine, tb, dB=dB_truth_f)
        truth_c = simulate_truth(model, grid, tb, dB=_pair_sum(dB_truth_f))
        ob = b.child(STREAM_OBS)
        dW_f = ob.child(1).brownian(fine.n_steps, model.m, fine.dt)
        obs_f.append(simulate_observations(model, fine, truth_f, ob, dW=dW_f))
        obs_c.append(simulate_observations(model, grid, truth_c, ob, dW=_pair_sum(dW_f)))

    x0, dB_f, dW_f = _particle_draws(plan, kind, N, trials, fine)
    ckpt_c = plan["ckpt_idx"]
    legs = (
        ("coarse", grid, obs_c, plan["cov_path"], _pair_sums(dB_f),
         None if dW_f is None else _pair_sums(dW_f), ckpt_c),
        ("fine", fine, obs_f, plan["cov_path_fine"], dB_f, dW_f, {2 * k for k in ckpt_c}),
    )
    rows = []
    for label, g, obs, covs, dB, dW, ckpt in legs:
        means = np.stack([kb_filter(model, g, o, cov_path=covs).means for o in obs], axis=1)
        dZ = np.stack(obs, axis=1)
        for k, x, mean, cov, _ in _step_loop(
            model, g, dZ, dB, ckpt, (f"{kind} {label}", N, trials), x=x0, variant=variant, dW=dW,
        ):
            t = round(g.t0 + k * g.dt, 9)
            for j, trial in enumerate(trials):
                rows.append(TrialRow(N, trial, t, f"bias_cov2_{label}",
                                     _cov_err(cov[j], covs[k]) ** 2))
                rows.append(TrialRow(N, trial, t, f"bias_mean2_{label}",
                                     _mean_err(mean[j], means[k, j]) ** 2))
    return rows


def _blocks(kind: str, N_list, n_trials: int, particle_bytes: int) -> list:
    """(kind, N, trials) blocks of a rate experiment, each N's trials cut in
    order into ranges of B trials: the unit of stepping and of dispatch.

    ``particle_bytes`` is what one particle's increments take on the grid
    its block steps.  A block holds B * N * particle_bytes of them, at most
    max(one trial at the largest N, ``_BLOCK_NOISE_BYTES``): small N step
    many trials per call, and a block never costs much more than either."""
    cap = max(max(N_list) * particle_bytes, _BLOCK_NOISE_BYTES)
    blocks = []
    for N in N_list:
        B = max(1, cap // (N * particle_bytes))
        blocks += [(kind, N, range(lo, min(n_trials, lo + B))) for lo in range(0, n_trials, B)]
    return blocks


def _particle_bytes(cfg: ExperimentConfig, n_steps: int) -> int:
    """Bytes of one particle's increments over ``n_steps``: d_B process
    columns, plus m perturbation columns when gamma2 > 0."""
    cols = cfg.model.d_B + (cfg.model.m if cfg.variant.gamma2 > 0.0 else 0)
    return 8 * n_steps * cols


def _block_rows(plan: dict, block: tuple) -> list:
    """Rows of one (kind, N, trials) block."""
    kind, N, trials = block
    step = _bias_block if kind == "convergence_bias" else _rate_block
    return step(plan, kind, N, trials)


def _run_trials(plan: dict, blocks: list, workers: int) -> list:
    """Run blocks, serially or on a process pool of at most ``workers``,
    one per block and one per CPU; each task carries the plan.

    Aggregation sorts rows by (N, trial, t, quantity), so the outcome does
    not depend on worker count or completion order."""
    run = partial(_block_rows, plan)
    rows = []
    procs = min(workers, len(blocks), os.cpu_count() or 1)
    if procs <= 1:
        for block in blocks:
            rows.extend(run(block))
    else:
        with ProcessPoolExecutor(max_workers=procs, mp_context=get_context("spawn")) as ex:
            for chunk in ex.map(run, blocks):
                rows.extend(chunk)
    rows.sort(key=lambda r: r.sort_key())
    return rows


# ---------------------------------------------------------------------------
# experiments


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """Versions, CPUs, numpy's BLAS and the thread variables as set (None
    when unset), read at run time."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v) for v in _THREAD_VARS},
    }


def _base_metadata(cfg: ExperimentConfig, consts: StabilityConstants | None) -> dict:
    md = {
        "code_version": __version__,
        "config_hash": config_hash(cfg),
        "workers": cfg.workers,
        "environment": _environment(),
    }
    if consts is not None:
        for k in ("m1_hat", "lambda_fit", "lambda0", "beta", "alpha"):
            md[k] = getattr(consts, k)
    return md


def _snap_nodes(grid: TimeGrid, count: int) -> list:
    """Evenly spaced times snapped to grid nodes, unique and sorted."""
    raw = np.linspace(grid.t0, grid.T, count)
    idx = sorted({int(round((t - grid.t0) / grid.dt)) for t in raw})
    return [grid.t0 + k * grid.dt for k in idx]


def run_riccati_validation(cfg: ExperimentConfig) -> ExperimentResult:
    """Cross-validate the DRE integrator against the closed-form solution,
    certify the ARE residual, and check the square-root flow envelope."""
    t_start = time.perf_counter()
    model = cfg.model
    try:
        validate_assumptions(model).require("a1", "a2")
    except AssumptionError as exc:
        raise AssumptionError(f"{cfg.name} refused: {exc}") from exc
    consts = solve_are(model)
    rows: list = []
    assertions: list = []

    t_dre = time.perf_counter()
    dre_path = integrate_dre(model.Sigma0, model, cfg.grid)
    stride = max(1, int(round(cfg.compare_stride_t / cfg.grid.dt)))
    max_rel = 0.0
    for k in range(0, cfg.grid.n_steps + 1, stride):
        t = cfg.grid.t0 + k * cfg.grid.dt
        closed = explicit_dre_solution(model.Sigma0, consts, model, t)
        denom = max(float(np.linalg.norm(dre_path[k], "fro")), 1e-30)
        rel = float(np.linalg.norm(closed - dre_path[k], "fro")) / denom
        max_rel = max(max_rel, rel)
        rows.append(TrialRow(0, 0, t, "dre_rel_err", rel))
    assertions.append(
        AssertionOutcome(
            "dre_cross_validation",
            max_rel <= 1e-6,
            f"max relative Frobenius mismatch {max_rel:.3e} (tolerance 1e-6)",
        )
    )

    res_tol = 1e-8 * (1.0 + float(np.linalg.norm(consts.sigma_inf, "fro")))
    assertions.append(
        AssertionOutcome(
            "are_residual",
            consts.are_residual <= res_tol,
            f"ARE residual {consts.are_residual:.3e} (tolerance {res_tol:.3e})",
        )
    )
    canonical = (
        model.is_scalar
        and np.allclose(
            [model.A[0, 0], model.H[0, 0], model.sigma_B[0, 0]], [-1.0, 1.0, 1.0]
        )
    )
    if canonical:
        gap = abs(float(consts.sigma_inf[0, 0]) - (math.sqrt(2.0) - 1.0))
        assertions.append(
            AssertionOutcome(
                "sigma_inf_closed_form",
                gap <= 1e-8,
                f"|sigma_inf - (sqrt(2)-1)| = {gap:.3e} (tolerance 1e-8)",
            )
        )

    dre_compare_s = time.perf_counter() - t_dre

    # Square-root flow envelope on a snapped (s, t) grid.
    t_psi = time.perf_counter()
    psi_grid = TimeGrid(T=cfg.grid.T, dt=cfg.psi_dt, t0=cfg.grid.t0)
    psi_path = integrate_dre(model.Sigma0, model, psi_grid)
    nodes = _snap_nodes(psi_grid, cfg.psi_grid_points)
    idx = [psi_grid.index_of(t) for t in nodes]
    psi_segments = transition_segments(0.5, idx, psi_path, model, psi_grid)
    phi_segments = transition_segments(1.0, idx, psi_path, model, psi_grid)
    eye = np.eye(model.d)
    violations = 0
    min_margin = math.inf
    margin_by_t: dict = {}
    phi_records = []  # (s, t, norm)
    for i, s in enumerate(nodes):
        # Psi(t_j, t_i) = P_{j-1} ... P_i: products of segments, no inverse,
        # which would cost conditioning on stiff models.
        Mpsi = Mphi = eye
        for t, P, F in zip(nodes[i:], [eye] + psi_segments[i:], [eye] + phi_segments[i:]):
            Mpsi, Mphi = P @ Mpsi, F @ Mphi
            norm = spectral_norm(Mpsi)
            bound = consts.alpha * math.exp(-consts.beta * (t - s))
            margin = bound - norm
            min_margin = min(min_margin, margin)
            if margin < 0.0:
                violations += 1
            key = round(t, 9)
            margin_by_t[key] = min(margin_by_t.get(key, math.inf), margin)
            phi_records.append((s, t, spectral_norm(Mphi)))
    for t_key in sorted(margin_by_t):
        rows.append(TrialRow(0, 0, t_key, "psi_min_margin", margin_by_t[t_key]))
    if math.isfinite(consts.alpha):
        envelope = (violations == 0, f"{violations} violations of alpha exp(-beta (t-s)) on the "
                    f"{len(nodes)}x{len(nodes)} grid (min margin {min_margin:.3e})")
    else:
        # an infinite envelope bounds every norm, so the check says nothing
        envelope = (False, f"uncheckable: alpha = {consts.alpha} is not finite "
                    "(ill-conditioned Sigma_inf), so alpha exp(-beta (t-s)) bounds nothing")
    assertions.append(AssertionOutcome("psi_envelope", *envelope))

    # Envelope constant for the primary flow, with start-time sensitivity.
    lam = consts.lambda_fit
    phi_kappa = {}
    for t0 in (0.0, 0.5, 1.0, 2.0):
        sel = [(n, t - s) for s, t, n in phi_records if s >= t0 - 1e-12]
        if sel:
            norms, gaps = zip(*sel)
            phi_kappa[t0] = fit_envelope_constant(norms, gaps, lam)
    rows.sort(key=lambda r: r.sort_key())

    md = _base_metadata(cfg, consts)
    md["phi_kappa_by_t0"] = phi_kappa
    md["psi_min_margin"] = min_margin
    md["dre_max_rel_err"] = max_rel
    md["dre_compare_s"] = dre_compare_s
    md["psi_envelope_s"] = time.perf_counter() - t_psi
    md["wall_time_s"] = time.perf_counter() - t_start
    return ExperimentResult(
        config=cfg, rows=rows, constants=consts, assertions=assertions, metadata=md
    )


def _init_copies(
    model: ModelParams, M: int, family: str, mean, var, bundle: NoiseBundle
) -> np.ndarray:
    """Initial copy population; exponential draws are mean/variance matched
    and share the Gaussian base draws (comonotone coupling)."""
    d = model.d
    mean_vec = np.full(d, float(mean)) if np.isscalar(mean) else np.asarray(mean, float)
    Z = bundle.normals((M, d))
    if family == "gaussian":
        if np.isscalar(var):
            L = psd_sqrt(float(var) * np.eye(d))
        else:
            L = psd_sqrt(np.asarray(var, float))
        return mean_vec + Z @ L.T
    if family == "exponential":
        if d != 1:
            raise ValueError("exponential initial law is scalar only")
        u = ndtr(Z[:, 0])
        e = -np.log1p(-np.clip(u, 0.0, 1.0 - 1e-16))
        return (mean_vec[0] + math.sqrt(float(var)) * (e - 1.0))[:, None]
    raise ValueError(f"unknown init family {family!r}")


def _mean_field_record(cfg: ExperimentConfig) -> tuple:
    """The one observation record of a mean-field experiment: its
    observations, the exact filter on them, the copies' noise bundle and
    their process increments, drawn step by step from one bulk stream into
    one buffer (each step's increments are valid until the next is drawn)."""
    model, grid = cfg.model, cfg.grid
    obs, fp = _observed(cfg.master_seed, cfg.name, 0, 0, model, grid)
    cb = trial_bundle(cfg.master_seed, cfg.name, 0, 0).child(STREAM_COPIES)
    rng = cb.child(1).generator()
    sqdt = math.sqrt(grid.dt)

    def dB():
        # one buffer, redrawn each step: the same bits as a fresh draw
        buf = np.empty((cfg.n_copies, model.d_B))
        for _ in range(grid.n_steps):
            rng.standard_normal(out=buf)
            buf *= sqdt
            yield buf

    return obs, fp, cb, dB()


def run_exactness(cfg: ExperimentConfig) -> ExperimentResult:
    """Evolve a large population of independent mean-field copies on one
    observation record and compare its moments with the exact filter."""
    t_start = time.perf_counter()
    model = cfg.model
    M = cfg.n_copies
    grid = cfg.grid
    consts = _try_constants(model)
    obs, fp, cb, dB = _mean_field_record(cfg)
    dre_path = integrate_dre(model.Sigma0, model, grid)
    cov_bitwise = bool(np.array_equal(fp.covs, dre_path))

    copies = _init_copies(
        model, M, cfg.init_family, model.m0,
        model.Sigma0 if cfg.init_family == "gaussian" else float(model.Sigma0[0, 0]),
        cb.child(0),
    )
    ckpt = {grid.index_of(t) for t in cfg.checkpoints}
    rows: list = []
    assertions: list = [
        AssertionOutcome(
            "kalman_cov_path_bitwise",
            cov_bitwise,
            "filter covariance path equals the deterministic DRE path bit for bit"
            if cov_bitwise
            else "filter covariance path differs from the DRE path",
        )
    ]
    for k, _, _, _, copies in _step_loop(
        model, grid, obs, dB, ckpt, (cfg.name, M, range(1)),
        copies=copies, kf_means=fp.means, kf_covs=fp.covs,
    ):
        t = grid.t0 + k * grid.dt
        emp_mean, emp_cov = ensemble_moments(copies)
        gap = _mean_err(emp_mean, fp.means[k])
        # roundoff floor keeps the degenerate zero-variance case honest
        tol = 4.0 * math.sqrt(float(np.trace(fp.covs[k])) / M) + 1e-12 * (
            1.0 + float(np.abs(fp.means[k]).max())
        )
        rows.append(TrialRow(M, 0, t, "mean_gap", gap))
        rows.append(TrialRow(M, 0, t, "mean_gap_tol", tol))
        var = float(np.trace(emp_cov))
        ref_var = float(np.trace(fp.covs[k]))
        skew = None
        if model.d == 1 and var > 0.0:
            z = (copies[:, 0] - emp_mean[0]) / math.sqrt(var)
            skew = float(np.mean(z**3))
            rows.append(TrialRow(M, 0, t, "skewness", skew))
            rows.append(TrialRow(M, 0, t, "excess_kurtosis", float(np.mean(z**4) - 3.0)))
        if ref_var > 0.0:
            ratio = var / ref_var
        else:
            # degenerate model: a zero reference variance must be met
            # by an exactly collapsed population
            ratio = 1.0 if var <= 1e-30 else math.inf
        rows.append(TrialRow(M, 0, t, "var_ratio", ratio))
        assertions.append(
            AssertionOutcome(
                f"mean_gap_t{t:g}",
                gap <= tol,
                f"|copy mean - filter mean| = {gap:.3e} at t={t:g} "
                f"(tolerance 4 sqrt(Sigma_t/M) = {tol:.3e})",
            )
        )
        assertions.append(
            AssertionOutcome(
                f"var_ratio_t{t:g}",
                abs(ratio - 1.0) <= 0.05,
                f"copy/filter variance ratio {ratio:.4f} at t={t:g} "
                "(tolerance 5%)",
            )
        )
        if skew is not None and cfg.init_family == "gaussian":
            z_skew = abs(skew) * math.sqrt(M / 6.0)
            assertions.append(
                AssertionOutcome(
                    f"normality_t{t:g}",
                    z_skew <= 8.0,
                    f"skewness z-score {z_skew:.2f} at t={t:g} (limit 8)",
                )
            )
    md = _base_metadata(cfg, consts)
    md["cov_path_bitwise"] = cov_bitwise
    md["wall_time_s"] = time.perf_counter() - t_start
    return ExperimentResult(
        config=cfg, rows=rows, constants=consts, assertions=assertions, metadata=md
    )


def run_stability(cfg: ExperimentConfig) -> ExperimentResult:
    """Couple two mean-field populations started from different laws on one
    observation record and fit the decay of the Wasserstein gap."""
    t_start = time.perf_counter()
    model = cfg.model
    M = cfg.n_copies
    grid = cfg.grid
    consts = _try_constants(model)
    if consts is None:
        raise AssumptionError(
            "stability experiment needs A1 and A2 to define the decay-rate "
            "reference beta"
        )
    alt = cfg.alt_init
    obs, fp_a, cb, dB = _mean_field_record(cfg)
    fp_b = kb_filter(model, grid, obs, init=FilterState(
        t=grid.t0, mean=np.full(model.d, alt.mean), cov=alt.var * np.eye(model.d)))

    # One stack: a, b from the alternative law on its own filter, and a twin of a.
    pop_a = _init_copies(model, M, "gaussian", model.m0, model.Sigma0, cb.child(0))
    pop_b = _init_copies(model, M, alt.family, alt.mean, alt.var, cb.child(0))
    pops = np.stack([pop_a, pop_b, pop_a])
    kf_means = np.stack([fp_a.means, fp_b.means, fp_a.means], axis=1)
    kf_covs = np.stack([fp_a.covs, fp_b.covs, fp_a.covs], axis=1)
    ckpt = range(cfg.record_every, grid.n_steps + 1, cfg.record_every)

    rows: list = []
    w2_identical_max = 0.0
    for k, _, _, _, pops in _step_loop(
        model, grid, obs, dB, ckpt, (cfg.name, M, range(1)),
        copies=pops, kf_means=kf_means, kf_covs=kf_covs,
    ):
        t = grid.t0 + k * grid.dt
        (ma, mb, mc), (Sa, Sb, Sc) = ensemble_moments(pops)
        rows.append(TrialRow(M, 0, t, "w2", gaussian_w2(ma, Sa, mb, Sb)))
        w2_id = gaussian_w2(ma, Sa, mc, Sc)
        w2_identical_max = max(w2_identical_max, w2_id)
        rows.append(TrialRow(M, 0, t, "w2_identical", w2_id))

    lo, hi = cfg.w2_fit_window
    ts, vals = [], []
    for r in rows:
        if r.quantity == "w2" and lo - 1e-9 <= r.t <= hi + 1e-9 and r.value > 0.0:
            ts.append(r.t)
            vals.append(r.value)
    assertions: list = []
    md = _base_metadata(cfg, consts)
    if len(ts) >= 3:
        slope, _, r2 = line_fit(ts, np.log(vals))
        rate = -slope
        md["w2_decay_rate"] = rate
        md["w2_decay_r2"] = r2
        md["w2_rate_over_beta"] = rate / consts.beta
        assertions.append(
            AssertionOutcome(
                "w2_decay_rate",
                rate >= 0.5 * consts.beta,
                f"fitted decay rate {rate:.4f} vs 0.5 beta = {0.5 * consts.beta:.4f}",
            )
        )
        assertions.append(
            AssertionOutcome(
                "w2_decay_r2", r2 >= R2_MIN, f"decay fit r^2 = {r2:.4f} (minimum {R2_MIN})"
            )
        )
    else:
        assertions.append(
            AssertionOutcome("w2_decay_rate", False, "not enough W2 samples in the fit window")
        )
    assertions.append(
        AssertionOutcome(
            "w2_identical_zero",
            w2_identical_max <= 1e-8,
            f"identical-initialization W2 stays at {w2_identical_max:.3e} (limit 1e-8)",
        )
    )
    md["wall_time_s"] = time.perf_counter() - t_start
    return ExperimentResult(
        config=cfg, rows=rows, constants=consts, assertions=assertions, metadata=md
    )


def _require_rate_preconditions(cfg: ExperimentConfig) -> None:
    if cfg.model.d != 1 or cfg.model.m != 1:
        raise ValueError(f"{cfg.name} rate experiment requires a scalar model")
    report = validate_assumptions(cfg.model)
    try:
        report.require("a3")
    except AssumptionError as exc:
        raise AssumptionError(f"{cfg.name} refused: {exc}") from exc


def _try_constants(model: ModelParams) -> StabilityConstants | None:
    """Stability constants when the model admits them (A1 and A2 hold)."""
    report = validate_assumptions(model)
    if not (report.a1 and report.a2):
        return None
    return solve_are(model)


def _slope_assertions(result_fits, assertions, label):
    for q, t, f in result_fits:
        ok_slope = SLOPE_BAND[0] <= f.slope <= SLOPE_BAND[1]
        ok_r2 = f.r_squared >= R2_MIN
        assertions.append(
            AssertionOutcome(
                f"{label}_{q}_slope_t{t:g}",
                ok_slope and ok_r2,
                f"{q} at t={t:g}: slope {f.slope:.3f} in {list(SLOPE_BAND)}, "
                f"r^2 {f.r_squared:.4f} >= {R2_MIN}",
            )
        )


def _rate_experiment(cfg: ExperimentConfig, quantities, bound_p: int,
                     bias_blocks=()) -> tuple:
    """What the rate experiments share: refuse unsupported models, take the
    stability constants and the bounds of moment order ``bound_p``, step
    the experiment's blocks and then ``bias_blocks`` on one plan, and fit
    an error curve per quantity and checkpoint.  Returns the result, its
    assertions still to add, and the bounds (None without constants)."""
    _require_rate_preconditions(cfg)
    model, grid = cfg.model, cfg.grid
    consts = _try_constants(model)
    bounds = theoretical_bounds(model, consts, bound_p) if consts is not None else None
    plan = {
        "master_seed": cfg.master_seed,
        "model": model,
        "grid": grid,
        "variant": cfg.variant,
        "cov_path": integrate_dre(model.Sigma0, model, grid),
        "ckpt_idx": frozenset(grid.index_of(t) for t in cfg.checkpoints),
    }
    if bias_blocks:
        plan["cov_path_fine"] = integrate_dre(model.Sigma0, model, grid.refined())
    blocks = (_blocks(cfg.name, cfg.N_list, cfg.n_trials, _particle_bytes(cfg, grid.n_steps))
              + list(bias_blocks))
    rows = _run_trials(plan, blocks, cfg.workers)

    curves, fits = [], []
    for q in quantities:
        for t in cfg.checkpoints:
            curve = mse_curve(rows, q, t, p=cfg.p, min_distinct_N=1)
            curves.extend((q, t, pt) for pt in curve)
            if len(curve) >= 3 and all(pt.estimate > 0.0 for pt in curve):
                fits.append((q, t, rate_fit(curve)))
    result = ExperimentResult(config=cfg, rows=rows, curves=curves, fits=fits,
                              constants=consts, metadata=_base_metadata(cfg, consts))
    return result, bounds


def run_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    """Finite-N moment-error rates against the exact filter."""
    t_start = time.perf_counter()
    N_max = max(cfg.N_list)
    bias_blocks = (_blocks("convergence_bias", (N_max,), cfg.dt_bias_trials,
                           _particle_bytes(cfg, 2 * cfg.grid.n_steps))
                   if cfg.dt_bias_check else [])
    res, bounds = _rate_experiment(cfg, ("cov_err_2p", "mean_err"), cfg.p, bias_blocks)
    rows, curves, assertions = res.rows, res.curves, res.assertions
    _slope_assertions(res.fits, assertions, "convergence")

    # Uniform-in-time: level at the last checkpoint within a factor 3 of the
    # first, for the largest N.
    t_first, t_last = min(cfg.checkpoints), max(cfg.checkpoints)
    if t_last > t_first:
        def cov_level(t):
            return next(
                pt.estimate
                for q, tt, pt in curves
                if q == "cov_err_2p" and abs(tt - t) <= 1e-9 and pt.N == N_max
            )
        lvl_first, lvl_last = cov_level(t_first), cov_level(t_last)
        detail = (
            f"N*MSE at t={t_last:g} is {lvl_last * N_max:.4f}, "
            f"at t={t_first:g} is {lvl_first * N_max:.4f} (factor limit 3)"
        )
        # a noiseless model: both levels are exact zeros or roundoff
        both_zero = max(lvl_first, lvl_last) <= _ROUNDOFF_MSE
        if both_zero:
            detail += f"; both 0 up to roundoff (<= {_ROUNDOFF_MSE:g})"
        assertions.append(
            AssertionOutcome("uniform_in_time", both_zero or lvl_last <= 3.0 * lvl_first, detail)
        )

    # Theoretical bound (2p-th moment form) against the measured curve, with
    # two bootstrap standard deviations of slack.
    if bounds is not None:
        worst = math.inf
        ok = True
        for q, t, pt in curves:
            if q != "cov_err_2p":
                continue
            bound = bounds.cov_bound(t, pt.N)
            slack = bound - (pt.estimate - 2.0 * pt.stderr)
            worst = min(worst, slack / bound)
            if pt.estimate - 2.0 * pt.stderr > bound:
                ok = False
        assertions.append(
            AssertionOutcome(
                "bound_consistency",
                ok,
                f"measured cov MSE below (C1 e^(-2 beta t) + C2)/N at every (N, t); "
                f"smallest relative slack {worst:.3f}",
            )
        )

    if cfg.dt_bias_check:
        worst_change = 0.0
        both_zero = []
        for q in ("bias_cov2", "bias_mean2"):
            for t in cfg.checkpoints:
                c_vals = [r.value for r in rows if r.quantity == f"{q}_coarse" and abs(r.t - t) <= 1e-9]
                f_vals = [r.value for r in rows if r.quantity == f"{q}_fine" and abs(r.t - t) <= 1e-9]
                if not c_vals:
                    continue
                mc, mf = float(np.mean(c_vals)), float(np.mean(f_vals))
                if max(mc, mf) <= _ROUNDOFF_MSE:
                    # a noiseless model: both resolutions are exact
                    both_zero.append(f"{q} at t={t:g}")
                    continue
                change = abs(mf - mc) / mc if mc > 0.0 else math.inf
                worst_change = max(worst_change, change)
        detail = (
            f"halving dt changes the measured MSE by at most "
            f"{100 * worst_change:.1f}% (limit 20%)"
        )
        if both_zero:
            detail += (
                f"; coarse and fine MSE both 0 up to roundoff (<= {_ROUNDOFF_MSE:g}) "
                f"for {', '.join(both_zero)}"
            )
        assertions.append(AssertionOutcome("dt_bias_control", worst_change < 0.2, detail))

    if bounds is not None:
        res.metadata["bounds"] = {
            "C1": bounds.C1, "C2": bounds.C2, "C3": bounds.C3, "C4": bounds.C4,
            "mu_A": bounds.mu_A, "p": bounds.p,
        }
    res.metadata["wall_time_s"] = time.perf_counter() - t_start
    return res


def run_chaos(cfg: ExperimentConfig) -> ExperimentResult:
    """Propagation-of-chaos rates from the coupled particle/copy system."""
    t_start = time.perf_counter()
    if cfg.variant != STOCHASTIC_FPF:
        raise ValueError(
            "the coupled-copy construction is defined for the (1, 0) variant"
        )
    quantities = ("particle_coupling", "function_mc")
    if cfg.model.d == 1:
        quantities += ("function_mc_abs",)
    res, bounds = _rate_experiment(cfg, quantities, max(2, cfg.p))
    asserted = [(q, t, f) for q, t, f in res.fits if q in quantities[:2]]
    _slope_assertions(asserted, res.assertions, "chaos")
    if bounds is not None:
        res.metadata["C4"] = bounds.C4
    res.metadata["wall_time_s"] = time.perf_counter() - t_start
    return res


_RUNNERS = {
    "riccati_validation": run_riccati_validation,
    "exactness": run_exactness,
    "stability": run_stability,
    "convergence": run_convergence,
    "chaos": run_chaos,
}


def run_experiment(cfg: ExperimentConfig, force: bool = False) -> ExperimentResult:
    if cfg.output_dir:
        _check_output_dir(cfg, cfg.output_dir, force)
    result = _RUNNERS[cfg.name](cfg)
    if cfg.output_dir:
        write_result(result, cfg.output_dir, force=force)
    return result


# ---------------------------------------------------------------------------
# output files


def _jsonable(obj):
    """Plain JSON values; non-finite floats become "inf", "-inf" or "nan",
    which strict JSON has no literal for."""
    if isinstance(obj, (np.ndarray, np.floating, np.integer)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


_RESULT_FILES = ("trials.csv", "curves.csv", "fits.csv", "constants.txt", "config_echo.json")


def _check_output_dir(cfg: ExperimentConfig, out_dir, force: bool) -> None:
    """Refuse a result directory that a run may not replace: one holding
    anything but result files, or the results of another config hash
    unless ``force``."""
    out = Path(out_dir)
    if not out.exists():
        return
    if not out.is_dir():
        raise OutputDirConflict(f"{out_dir} is not a directory")
    foreign = sorted(p.name for p in out.iterdir() if p.name not in _RESULT_FILES)
    if foreign:
        raise OutputDirConflict(
            f"{out_dir} holds {foreign}, which are not result files; refusing to replace it"
        )
    echo_path = out / "config_echo.json"
    if not echo_path.exists():
        return
    try:
        old_hash = json.loads(echo_path.read_text())["config_hash"]
    except (json.JSONDecodeError, KeyError):
        old_hash = None
    new_hash = config_hash(cfg)
    if old_hash != new_hash and not force:
        raise OutputDirConflict(
            f"{out_dir} holds results for config hash {old_hash}, refusing to "
            f"overwrite with {new_hash} (use force)"
        )


def _write_files(result: ExperimentResult, out: Path) -> None:
    new_hash = config_hash(result.config)
    stamp = f"# config_hash={new_hash}\n"
    tables = {
        "trials.csv": ("N,trial,t,quantity,value", (
            f"{r.N},{r.trial},{r.t!r},{r.quantity},{r.value!r}" for r in result.rows)),
        "curves.csv": ("quantity,t,N,estimate,stderr_low,stderr_high", (
            f"{q},{t!r},{pt.N},{pt.estimate!r},{pt.stderr_low!r},{pt.stderr_high!r}"
            for q, t, pt in result.curves)),
        "fits.csv": ("quantity,t,slope,intercept,r_squared,n_points", (
            f"{q},{t!r},{f.slope!r},{f.intercept!r},{f.r_squared!r},{len(f.points)}"
            for q, t, f in result.fits)),
    }
    for name, (header, lines) in tables.items():
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            fh.write(stamp)
            fh.write(header + "\n")
            for line in lines:
                fh.write(line + "\n")
    if result.constants is not None:
        with open(out / "constants.txt", "w", encoding="utf-8", newline="") as fh:
            fh.write(stamp)
            fh.write(result.constants.to_text())
    echo = _jsonable({
        "config": result.config.to_json(),
        "config_hash": new_hash,
        "metadata": result.metadata,
        "assertions": [
            {"name": a.name, "passed": a.passed, "detail": a.detail}
            for a in result.assertions
        ],
        "passed": result.passed,
    })
    (out / "config_echo.json").write_text(
        json.dumps(echo, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_result(result: ExperimentResult, out_dir, force: bool = False) -> Path:
    """Emit trials.csv, curves.csv, fits.csv, constants.txt and
    config_echo.json into ``out_dir``; returns its resolved path.

    The files are written into a new sibling directory, which then takes
    the place of ``out_dir``: a failure part way leaves the old directory
    whole, and no directory holds the files of two configs.  The refusals
    are those of :func:`_check_output_dir`."""
    out = Path(out_dir).resolve()
    _check_output_dir(result.config, out, force)
    out.parent.mkdir(parents=True, exist_ok=True)
    tag = f"{os.getpid()}-{os.urandom(4).hex()}"
    new = out.with_name(f".{out.name}.new-{tag}")
    new.mkdir()
    try:
        _write_files(result, new)
    except BaseException:
        shutil.rmtree(new, ignore_errors=True)
        raise
    if out.exists():
        old = out.with_name(f".{out.name}.old-{tag}")
        out.rename(old)
        new.rename(out)
        shutil.rmtree(old)
    else:
        new.rename(out)
    return out


def load_result_summary(out_dir) -> dict:
    """Load the config echo (hash, metadata, assertion outcomes) of a run."""
    path = Path(out_dir) / "config_echo.json"
    if not path.exists():
        raise FileNotFoundError(f"no config_echo.json under {out_dir}")
    return json.loads(path.read_text())
