"""Layer spans recorded from outside the package.

While a :class:`Tracer` is installed, the public functions of each
``enkbf_lab`` module are replaced, under the names through which their
callers reach them, by wrappers that time each call.  Spans nest: a span's
self time is its duration minus the time of the spans opened inside it.
Spans are aggregated per key as they close (a key is a layer name, or a
layer name with N or a model shape), so the millions of kernel calls of a
pass cost a few counters, not a list of spans.

Trials are delimited by consecutive calls to ``harness.trial_bundle``; the
last trial of an experiment ends at its first ``mse_curve`` call or when
``run_experiment`` returns.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import numpy as np

from enkbf_lab import harness, kalman, riccati
from enkbf_lab.linmodel import NoiseBundle

from workloads import TRIAL_KINDS

_clock = time.perf_counter


def _arg(args, kwargs, i, name):
    """Argument ``i`` of a call, passed by position or as ``name``."""
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Spans of one traced pass, aggregated per key."""

    def __init__(self):
        self.calls = Counter()
        self.units = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.trials = defaultdict(list)  # (kind, N) -> seconds per trial
        self.dre_paths = set()  # distinct (model, Sigma0, grid) integrated
        self.noise_peak_bytes = 0
        self.output_bytes = 0
        self._stack = []
        self._trial = None
        self._patched = []

    # -- spans -------------------------------------------------------------

    def _span(self, fn, name, measure=None, after=None):
        stack = self._stack
        calls, units, total, self_time = self.calls, self.units, self.total, self.self_time

        def wrapper(*args, **kwargs):
            key, n = measure(args, kwargs) if measure else (name, 0)
            frame = [_clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = _clock() - frame[0]
                total[key] += dur
                self_time[key] += dur - frame[1]
                calls[key] += 1
                units[key] += n
                if stack:
                    stack[-1][1] += dur
            if after:
                out = after(args, kwargs, out)
            return out

        return wrapper

    def _close_trial(self):
        if self._trial is not None:
            kind, N, start = self._trial
            self.trials[(kind, N)].append(_clock() - start)
            self._trial = None

    # -- measures and post-hooks --------------------------------------------

    def _fpf_measure(self, args, kwargs):
        N = _arg(args, kwargs, 0, "ens").N
        return ("ensemble.fpf_step", N), N

    def _coupled_measure(self, args, kwargs):
        return "ensemble.coupled_step", _arg(args, kwargs, 0, "sys").N

    def _copy_measure(self, args, kwargs):
        shape = "scalar" if _arg(args, kwargs, 5, "params").is_scalar else "vector"
        return ("ensemble.copy_step", shape), len(_arg(args, kwargs, 0, "copies"))

    def _kb_measure(self, args, kwargs):
        return "kalman.kb_filter", _arg(args, kwargs, 1, "grid").n_steps

    def _dre_measure(self, args, kwargs):
        sigma0 = np.asarray(_arg(args, kwargs, 0, "Sigma0"), dtype=float)
        params, grid = _arg(args, kwargs, 1, "params"), _arg(args, kwargs, 2, "grid")
        self.dre_paths.add((
            json.dumps(params.to_config(), sort_keys=True),
            sigma0.tobytes(), grid.T, grid.dt, grid.t0,
        ))
        return "riccati.integrate_dre", grid.n_steps

    def _mse_measure(self, args, kwargs):
        self._close_trial()
        return "metrics.mse_curve", 0

    def _noise_after(self, args, kwargs, out):
        self.noise_peak_bytes = max(self.noise_peak_bytes, out.nbytes)
        return out

    def _generator_after(self, args, kwargs, out):
        return _TimedGenerator(out, self)

    def _write_after(self, args, kwargs, out):
        self.output_bytes += sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        return out

    def _run_after(self, args, kwargs, out):
        self._close_trial()
        return out

    def _trial_bundle(self, fn):
        def wrapper(master_seed, name, N, trial):
            self._close_trial()
            if name in TRIAL_KINDS:
                self._trial = (name, N, _clock())
            return fn(master_seed, name, N, trial)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper_of):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def install(self) -> None:
        span = self._span
        spans = {
            "simulate_truth": ("linmodel.simulate_truth", None, None),
            "simulate_observations": ("linmodel.simulate_observations", None, None),
            "validate_assumptions": ("linmodel.validate_assumptions", None, None),
            "init_ensemble": ("ensemble.init_ensemble", None, None),
            "particle_process_noise": ("ensemble.particle_process_noise", None, self._noise_after),
            "particle_obs_perturbations": ("ensemble.particle_obs_perturbations", None, self._noise_after),
            "init_coupled": ("ensemble.init_coupled", None, None),
            "empirical_stats": ("ensemble.empirical_stats", None, None),
            "fpf_step": (None, self._fpf_measure, None),
            "coupled_step": (None, self._coupled_measure, None),
            "mean_field_copy_step": (None, self._copy_measure, None),
            "kb_filter": (None, self._kb_measure, None),
            "solve_are": ("riccati.solve_are", None, None),
            "mse_curve": (None, self._mse_measure, None),
            "rate_fit": ("metrics.rate_fit", None, None),
            "gaussian_w2": ("metrics.gaussian_w2", None, None),
            "theoretical_bounds": ("metrics.theoretical_bounds", None, None),
            "folded_normal_mean": ("metrics.folded_normal_mean", None, None),
            "write_result": ("harness.write_result", None, self._write_after),
            "run_experiment": ("harness.run_experiment", None, self._run_after),
        }
        try:
            for attr, (name, measure, after) in spans.items():
                self._patch(harness, attr, lambda f, n=name, m=measure, a=after: span(f, n, m, a))
            self._patch(harness, "trial_bundle", self._trial_bundle)
            # integrate_dre as reached from the harness, the filter and solve_are
            for owner in (harness, kalman, riccati):
                self._patch(owner, "integrate_dre", lambda f: span(f, None, self._dre_measure))
            self._patch(NoiseBundle, "generator",
                        lambda f: span(f, "linmodel.generator", None, self._generator_after))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._close_trial()


def _draw_measure(args, kwargs):
    size = args[0] if args else kwargs.get("size")
    return "linmodel.draw", 1 if size is None else int(np.prod(size))


class _TimedGenerator:
    """Thin proxy around a ``numpy.random.Generator`` that times and counts
    its ``standard_normal`` draws as ``linmodel.draw`` spans."""

    __slots__ = ("_gen", "standard_normal")

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self.standard_normal = tracer._span(
            gen.standard_normal, None, _draw_measure, tracer._noise_after
        )

    def __getattr__(self, name):
        return getattr(self._gen, name)
