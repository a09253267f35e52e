"""Benchmark workloads: the experiment configs each workload runs, and the
output every one of them must produce.

Each workload is a list of two legs, one ``run_experiment`` call each, run
back to back in one process.  The sizes are cut from the acceptance configs
so that one pass of a workload takes a few seconds on a 2-core machine:

* ``rates``: ``convergence`` (with its dt-bias refinement pair) then
  ``chaos`` on the acceptance scalar model.  30 trials per N, the least
  ``mse_curve`` accepts, on T = 0.5 instead of 5 (checkpoints 0.25, 0.5).
  Three N per experiment, the fewest a rate fit takes, keeping N = 50 and
  N = 800.  Per-particle Philox streams and the particle kernel do the
  work; the single bulk stream and the 2-d branches are bypassed.
* ``meanfield``: ``exactness`` with 10^5 copies on T = 1, then ``stability``
  on the 2-d ``diag2_model`` with 3 x 4000 copies on T = 2.  One bulk
  noise stream and the copy kernel on large arrays, scalar and vector, do
  the work; per-particle streams and ``fpf_step`` are bypassed.

``tiny=True`` shrinks every leg to a fraction of a second for the
benchmark's own test; its statistical assertions are not expected to pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from enkbf_lab import harness
from enkbf_lab.linmodel import TimeGrid

WORKLOADS = ("rates", "meanfield")

# Trial kinds whose consecutive ``trial_bundle`` calls delimit trials.
TRIAL_KINDS = ("convergence", "convergence_bias", "chaos")


@dataclass(frozen=True)
class Leg:
    """One ``run_experiment`` call of a workload pass."""

    label: str
    cfg: harness.ExperimentConfig


def master_seed(seed: int) -> int:
    """Experiment master seed for a benchmark seed (any integer)."""
    return int(seed) % (2**63)


def build_legs(workload: str, seed: int, tiny: bool = False) -> list:
    """The legs of one pass of ``workload``; output directories unset."""
    ms = master_seed(seed)
    if workload == "rates":
        T, N_conv, N_chaos, bias = (0.5, (50, 200, 800), (100, 200, 800), 4)
        if tiny:
            T, N_conv, N_chaos, bias = (0.02, (6, 12, 24), (6, 12, 24), 2)
        grid = TimeGrid(T=T, dt=1e-3)
        ckpt = (T / 2, T)
        return [
            Leg("convergence", harness.default_config(
                "convergence", grid=grid, checkpoints=ckpt, N_list=N_conv,
                n_trials=30, dt_bias_trials=bias, master_seed=ms,
            )),
            Leg("chaos", harness.default_config(
                "chaos", grid=grid, checkpoints=ckpt, N_list=N_chaos,
                n_trials=30, master_seed=ms,
            )),
        ]
    if workload == "meanfield":
        if tiny:
            ex = dict(grid=TimeGrid(T=0.02, dt=1e-3), checkpoints=(0.01, 0.02), n_copies=500)
            st = dict(grid=TimeGrid(T=0.05, dt=1e-3), record_every=10,
                      w2_fit_window=(0.0, 0.05), n_copies=200)
        else:
            ex = dict(grid=TimeGrid(T=1.0, dt=1e-3), checkpoints=(0.5, 1.0), n_copies=100_000)
            st = dict(grid=TimeGrid(T=2.0, dt=1e-3), w2_fit_window=(0.5, 2.0), n_copies=4000)
        return [
            Leg("exactness", harness.default_config("exactness", master_seed=ms, **ex)),
            Leg("stability", harness.default_config(
                "stability", model=harness.diag2_model(), master_seed=ms, **st,
            )),
        ]
    raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# what each experiment must produce


def _t(t: float) -> float:
    return round(t, 9)


def expected_assertions(cfg) -> set:
    """Names of the assertions ``cfg`` must return (none may be dropped)."""
    ck = cfg.checkpoints
    if cfg.name == "convergence":
        names = {f"convergence_{q}_slope_t{t:g}" for q in ("cov_err_2p", "mean_err") for t in ck}
        names.add("bound_consistency")
        if max(ck) > min(ck):
            names.add("uniform_in_time")
        if cfg.dt_bias_check:
            names.add("dt_bias_control")
        return names
    if cfg.name == "chaos":
        return {f"chaos_{q}_slope_t{t:g}" for q in ("particle_coupling", "function_mc") for t in ck}
    if cfg.name == "exactness":
        names = {"kalman_cov_path_bitwise"}
        for t in ck:
            names |= {f"mean_gap_t{t:g}", f"var_ratio_t{t:g}"}
            if cfg.model.d == 1 and cfg.init_family == "gaussian":
                names.add(f"normality_t{t:g}")
        return names
    if cfg.name == "stability":
        return {"w2_decay_rate", "w2_decay_r2", "w2_identical_zero"}
    raise ValueError(cfg.name)


def expected_rows(cfg) -> Counter:
    """Expected row count per (N, t, quantity) of ``trials.csv``."""
    out: Counter = Counter()
    ck = [_t(t) for t in cfg.checkpoints]
    if cfg.name == "convergence":
        for N in cfg.N_list:
            for t in ck:
                for q in ("cov_err", "mean_err"):
                    out[(N, t, q)] = cfg.n_trials
        if cfg.dt_bias_check:
            for t in ck:
                for q in ("bias_cov2_coarse", "bias_cov2_fine",
                          "bias_mean2_coarse", "bias_mean2_fine"):
                    out[(max(cfg.N_list), t, q)] = cfg.dt_bias_trials
    elif cfg.name == "chaos":
        qs = ["coupling_err", "func_gap_x"] + (["func_gap_absx"] if cfg.model.d == 1 else [])
        for N in cfg.N_list:
            for t in ck:
                for q in qs:
                    out[(N, t, q)] = cfg.n_trials
    elif cfg.name == "exactness":
        qs = ["mean_gap", "mean_gap_tol", "var_ratio"]
        if cfg.model.d == 1:
            qs += ["skewness", "excess_kurtosis"]
        for t in ck:
            for q in qs:
                out[(cfg.n_copies, t, q)] = 1
    elif cfg.name == "stability":
        g = cfg.grid
        for k in range(cfg.record_every, g.n_steps + 1, cfg.record_every):
            for q in ("w2", "w2_identical"):
                out[(cfg.n_copies, _t(g.t0 + k * g.dt), q)] = 1
    else:
        raise ValueError(cfg.name)
    return out


def expected_checks(cfg) -> int:
    """Checks one run of ``cfg`` is held to: its assertions, one finiteness
    check per row and one row-count check per (N, t, quantity)."""
    rows = expected_rows(cfg)
    return len(expected_assertions(cfg)) + sum(rows.values()) + len(rows)


def euler_steps(cfg) -> int:
    """Particle plus copy Euler steps one run advances."""
    n = cfg.grid.n_steps
    if cfg.name == "convergence":
        steps = sum(cfg.n_trials * N * n for N in cfg.N_list)
        if cfg.dt_bias_check:
            steps += cfg.dt_bias_trials * max(cfg.N_list) * 3 * n
        return steps
    if cfg.name == "chaos":
        return sum(cfg.n_trials * 2 * N * n for N in cfg.N_list)
    if cfg.name == "exactness":
        return cfg.n_copies * n
    if cfg.name == "stability":
        return 3 * cfg.n_copies * n
    raise ValueError(cfg.name)
