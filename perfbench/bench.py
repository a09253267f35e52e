"""Run one benchmark workload for a fixed time and report its metrics.

A run is one process.  It first times ``SETUP_REPEATS`` fresh interpreters
that import ``enkbf_lab`` and build the workload's configs (``setup_s``),
then runs passes of the workload back to back, a closed loop, for about
``--seconds``: at least one pass, and as many as come closest to that
time.  A pass runs every leg of the workload once through the public
``harness.run_experiment``, writing its result files to a scratch
directory inside the checkout.

With ``--trace 0`` every pass is timed with tracing off and the end-to-end
metrics are reported.  With ``--trace 1`` untraced and traced passes
alternate: the traced ones give the per-layer metrics, the untraced ones
the base of ``trace_overhead_frac``.  Times are medians over passes;
per-layer times are per pass, averaged over the traced passes; counts are
those of one pass and must repeat exactly in every traced pass.

Every run checks the outputs: each assertion an experiment returns (see
:class:`Checks` for the rate slopes), the finiteness of every
``trials.csv`` row and the row count of every (N, t, quantity).  An
experiment that raises fails all of its checks.  The last line of standard
output is one JSON object with ``correct``, ``attempted`` and ``failed``
checks and the metrics; the exit code is 1 when a check failed.  The lines
before it give each metric with its unit and sample count, the time of
each leg under its experiment's name, ``failed_frac`` and the environment.

The end-to-end names are shared by the workloads: ``leg1_s`` and
``leg2_s`` are the two legs in the order of :func:`workloads.build_legs`
(convergence then chaos, exactness then stability), and ``wall_s`` is the
time of a whole pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from enkbf_lab import harness

from tracing import Tracer
from workloads import WORKLOADS, build_legs, euler_steps, expected_assertions, expected_checks, expected_rows

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("leg1_s", "s"),
    ("leg2_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# (kind, N) of the per-trial timings; tails only where a pass runs 30 trials.
TRIAL_SERIES = [
    ("convergence", 50), ("convergence", 200), ("convergence", 800),
    ("convergence_bias", 800),
    ("chaos", 100), ("chaos", 200), ("chaos", 800),
]

PER_LAYER = [
    ("linmodel.streams", "count", "lower"),
    ("linmodel.stream_setup_us", "us", "lower"),
    ("linmodel.normals", "count", "lower"),
    ("linmodel.draw_ns_per_normal", "ns", "lower"),
    ("linmodel.noise_peak_mb", "MB", "lower"),
    ("linmodel.truth_obs_s", "s", "lower"),
    ("ensemble.particle_steps", "count", "lower"),
    ("ensemble.fpf_step_calls", "count", "lower"),
    ("ensemble.fpf_step_ns_per_particle_step.N50", "ns", "lower"),
    ("ensemble.fpf_step_ns_per_particle_step.N800", "ns", "lower"),
    ("ensemble.empirical_stats_s", "s", "lower"),
    ("ensemble.coupled_step_s", "s", "lower"),
    ("ensemble.init_s", "s", "lower"),
    ("ensemble.copy_step_ns_per_copy_step.scalar", "ns", "lower"),
    ("ensemble.copy_step_ns_per_copy_step.vector", "ns", "lower"),
    ("kalman.kb_filter_calls", "count", "lower"),
    ("kalman.kb_filter_us_per_step", "us", "lower"),
    ("riccati.integrate_dre_calls", "count", "lower"),
    ("riccati.integrate_dre_steps", "count", "lower"),
    ("riccati.integrate_dre_us_per_step", "us", "lower"),
    ("riccati.integrate_dre_useful_ratio", "ratio", "higher"),
    ("riccati.solve_are_calls", "count", "lower"),
    ("riccati.solve_are_s", "s", "lower"),
    ("metrics.mse_curve_s", "s", "lower"),
    ("metrics.gaussian_w2_s", "s", "lower"),
]
PER_LAYER += [
    (f"harness.trial_s.{kind}.N{N}.{stat}", "count" if stat == "count" else "s", "lower")
    for kind, N in TRIAL_SERIES
    for stat in (("median", "count") if kind == "convergence_bias" else ("median", "tail", "count"))
]
PER_LAYER += [
    ("harness.write_result_s", "s", "lower"),
    ("harness.output_bytes", "bytes", "lower"),
    ("harness.self_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment() -> dict:
    """Versions, CPU count, thread settings and the code measured.  The
    source hash identifies the code where the checkout is not a git
    repository."""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "enkbf_lab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "git_commit": _git_commit(ROOT),
        "source_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter until it has imported
    enkbf_lab and built the workload's configs."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


class Checks:
    """Tally of correctness checks; keeps the first failure messages.

    The outcome of a rate-slope assertion (``*_slope_t*``: a log-log slope
    in [-1.3, -0.7] with r^2 >= 0.9) is a Monte Carlo test sized for 200
    trials per N.  At the benchmark's 30 trials it fails for a sizeable
    share of seeds with a correct program, so it is tallied apart: it
    counts in ``failed_frac`` but not in the gate (``failed`` and the exit
    code).  That the assertion is returned at all is a gate check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.slopes_attempted = 0
        self.slopes_failed = 0
        self.messages = []

    def add(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.messages) < 20:
                self.messages.append(what)

    @property
    def failed_frac(self) -> float:
        total = self.attempted + self.slopes_attempted
        return (self.failed + self.slopes_failed) / total if total else 0.0

    def check_result(self, label: str, cfg, result) -> None:
        got = {a.name: a for a in result.assertions}
        for name in sorted(expected_assertions(cfg) | set(got)):
            a = got.get(name)
            if a is not None and "_slope_t" in name:
                self.add(True, name)
                self.slopes_attempted += 1
                self.slopes_failed += not a.passed
                continue
            self.add(a is not None and a.passed,
                     f"{label}: assertion {name} " + (a.detail if a else "missing"))
        for r in result.rows:
            self.add(math.isfinite(r.value), f"{label}: non-finite row {r}")
        want = expected_rows(cfg)
        seen = {}
        for r in result.rows:
            key = (r.N, round(r.t, 9), r.quantity)
            seen[key] = seen.get(key, 0) + 1
        for key in sorted(set(want) | set(seen), key=repr):
            self.add(want.get(key) == seen.get(key),
                     f"{label}: {seen.get(key, 0)} rows at {key}, expected {want.get(key, 0)}")


def run_pass(legs, checks: Checks, tracer: Tracer | None) -> dict:
    """Run every leg once, traced if ``tracer`` is given; returns seconds
    per leg label."""
    times = {}
    if tracer is not None:
        tracer.install()
    try:
        for leg in legs:
            start = time.perf_counter()
            try:
                result = harness.run_experiment(leg.cfg)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                checks.add(False, f"{leg.label}: run_experiment raised", expected_checks(leg.cfg))
                continue
            times[leg.label] = time.perf_counter() - start
            checks.check_result(leg.label, leg.cfg, result)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return times


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb * 1024 / 1e6


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(legs, passes, setup_times) -> dict:
    wall = _median([sum(p.values()) for p in passes if len(p) == len(legs)])
    steps = sum(euler_steps(leg.cfg) for leg in legs)
    values = {
        "setup_s": _median(setup_times),
        "wall_s": wall,
        "leg1_s": _median([p[legs[0].label] for p in passes if legs[0].label in p]),
        "leg2_s": _median([p[legs[1].label] for p in passes if legs[1].label in p]),
        "steps_per_s": steps / wall if wall > 0 else 0.0,
        "peak_rss_mb": _peak_rss_mb(),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def _counts(tr: Tracer) -> tuple:
    return (sorted(tr.calls.items(), key=repr), sorted(tr.units.items(), key=repr),
            sorted(((k, len(v)) for k, v in tr.trials.items()), key=repr),
            len(tr.dre_paths), tr.noise_peak_bytes)


def layer_metrics(legs, tracers, traced_times, untraced_times) -> dict:
    """Per-layer metrics from the traced passes; times are per pass."""
    n = len(tracers)
    one = tracers[0]

    def total(*keys):
        return sum(t.total.get(k, 0.0) for t in tracers for k in keys) / n

    def own(*keys):
        return sum(t.self_time.get(k, 0.0) for t in tracers for k in keys) / n

    def units(*keys):
        return sum(one.units.get(k, 0) for k in keys)

    def per_unit(seconds, count, scale):
        return seconds / count * scale if count else 0.0

    fpf = [k for k in one.calls if isinstance(k, tuple) and k[0] == "ensemble.fpf_step"]
    v = {
        "linmodel.streams": one.calls.get("linmodel.generator", 0),
        "linmodel.stream_setup_us": per_unit(total("linmodel.generator"),
                                             one.calls.get("linmodel.generator", 0), 1e6),
        "linmodel.normals": units("linmodel.draw"),
        "linmodel.draw_ns_per_normal": per_unit(total("linmodel.draw"), units("linmodel.draw"), 1e9),
        "linmodel.noise_peak_mb": max(t.noise_peak_bytes for t in tracers) / 1e6,
        "linmodel.truth_obs_s": total("linmodel.simulate_truth", "linmodel.simulate_observations"),
        "ensemble.particle_steps": units(*fpf, "ensemble.coupled_step"),
        "ensemble.fpf_step_calls": sum(one.calls[k] for k in fpf),
        "ensemble.empirical_stats_s": total("ensemble.empirical_stats"),
        "ensemble.coupled_step_s": total("ensemble.coupled_step"),
        "ensemble.init_s": own("ensemble.init_ensemble", "ensemble.particle_process_noise",
                               "ensemble.particle_obs_perturbations", "ensemble.init_coupled"),
        "kalman.kb_filter_calls": one.calls.get("kalman.kb_filter", 0),
        "kalman.kb_filter_us_per_step": per_unit(own("kalman.kb_filter"),
                                                 units("kalman.kb_filter"), 1e6),
        "riccati.integrate_dre_calls": one.calls.get("riccati.integrate_dre", 0),
        "riccati.integrate_dre_steps": units("riccati.integrate_dre"),
        "riccati.integrate_dre_us_per_step": per_unit(total("riccati.integrate_dre"),
                                                      units("riccati.integrate_dre"), 1e6),
        "riccati.integrate_dre_useful_ratio": per_unit(
            len(one.dre_paths), one.calls.get("riccati.integrate_dre", 0), 1.0),
        "riccati.solve_are_calls": one.calls.get("riccati.solve_are", 0),
        "riccati.solve_are_s": total("riccati.solve_are"),
        "metrics.mse_curve_s": total("metrics.mse_curve"),
        "metrics.gaussian_w2_s": total("metrics.gaussian_w2"),
        "harness.write_result_s": total("harness.write_result"),
        "harness.output_bytes": one.output_bytes,
        "harness.self_s": own("harness.run_experiment"),
    }
    for N in (50, 800):
        key = ("ensemble.fpf_step", N)
        v[f"ensemble.fpf_step_ns_per_particle_step.N{N}"] = per_unit(total(key), units(key), 1e9)
    for shape in ("scalar", "vector"):
        key = ("ensemble.copy_step", shape)
        v[f"ensemble.copy_step_ns_per_copy_step.{shape}"] = per_unit(total(key), units(key), 1e9)
    for kind, N in TRIAL_SERIES:
        pooled = sorted(x for t in tracers for x in t.trials.get((kind, N), ()))
        name = f"harness.trial_s.{kind}.N{N}"
        v[f"{name}.median"] = _median(pooled)
        v[f"{name}.count"] = len(one.trials.get((kind, N), ()))
        # highest order statistic with at least 10 trials beyond it
        v[f"{name}.tail"] = pooled[-11] if len(pooled) > 10 else 0.0

    traced = _median([sum(p.values()) for p in traced_times])
    base = _median([sum(p.values()) for p in untraced_times])
    v["trace_overhead_frac"] = traced / base - 1.0 if base else 0.0
    return {name: (v[name], unit) for name, unit, _ in PER_LAYER}


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            log=print) -> dict:
    """Run ``workload`` as described in the module docstring; returns the
    metrics as {name: (value, unit)} with the check tally."""
    env = environment()
    log("env " + json.dumps(env, sort_keys=True))
    setup_times = [measure_setup(workload, seed) for _ in range(SETUP_REPEATS)]
    checks = Checks()
    legs = build_legs(workload, seed, tiny=tiny)
    scratch_root = ROOT / ".bench_out"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root)
    try:
        legs = [replace(leg, cfg=replace(leg.cfg, output_dir=os.path.join(scratch, leg.label)))
                for leg in legs]
        untraced, traced, tracers = [], [], []
        start = time.perf_counter()
        while True:
            tracer = Tracer() if trace and len(untraced) > len(traced) else None
            times = run_pass(legs, checks, tracer)
            if tracer is None:
                untraced.append(times)
            else:
                traced.append(times)
                tracers.append(tracer)
            # stop where the run comes closest to ``seconds``: before a pass
            # that would end more than half a pass past it
            elapsed = time.perf_counter() - start
            done = elapsed * (1 + 0.5 / (len(untraced) + len(traced))) >= seconds
            if done and (not trace or tracers) and len(untraced) >= len(traced):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is still using it

    if len(tracers) > 1:
        ref = _counts(tracers[0])
        checks.add(all(_counts(t) == ref for t in tracers[1:]),
                   "per-layer counts differ between traced passes")
    metrics = end_to_end_metrics(legs, untraced, setup_times)
    for name, (value, unit) in metrics.items():
        n = len(setup_times) if name == "setup_s" else len(untraced)
        log(f"{name} {value:.6g} {unit} (median of {n})")
    for leg in legs:
        vals = [p[leg.label] for p in untraced if leg.label in p]
        log(f"{leg.label}_s {_median(vals):.6g} s (median of {len(vals)}: "
            + " ".join(f"{x:.4g}" for x in vals) + ")")
    log(f"failed_frac {checks.failed_frac:.6g} ({checks.failed} of {checks.attempted} gate "
        f"checks, {checks.slopes_failed} of {checks.slopes_attempted} rate-slope outcomes)")
    if trace:
        metrics = layer_metrics(legs, tracers, traced, untraced)
        for name, (value, unit) in metrics.items():
            log(f"{name} {value:.6g} {unit} (traced passes: {len(tracers)})")
    for msg in checks.messages:
        print("check failed: " + msg, file=sys.stderr)
    return {"metrics": metrics, "attempted": checks.attempted, "failed": checks.failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one enkbf-lab benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }
    print(json.dumps(out), flush=True)
    return 0 if report["failed"] == 0 else 1
