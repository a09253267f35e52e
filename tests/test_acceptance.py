"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance on the
reference scalar model (a=-1, h=1, sigma_b=1, prior N(0,1), dt=1e-3, T=5)
and prints one pass/fail line.  The heavy Monte Carlo experiments are
shared across criteria through module-scoped fixtures; expect the whole
module to take several minutes.
"""

import math

import pytest

from enkbf_lab import harness
from enkbf_lab.harness import default_config, diag2_model, run_experiment

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
SLOPE_LO, SLOPE_HI = harness.SLOPE_BAND
R2_MIN = harness.R2_MIN

pytestmark = pytest.mark.acceptance


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


@pytest.fixture(scope="module")
def validation_scalar():
    return run_experiment(default_config("riccati_validation"))


@pytest.fixture(scope="module")
def validation_diag():
    cfg = default_config("riccati_validation", model=diag2_model())
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def convergence_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "convergence_1worker"
    cfg = default_config("convergence", output_dir=str(out), workers=1)
    return run_experiment(cfg), out


@pytest.fixture(scope="module")
def chaos_run():
    return run_experiment(default_config("chaos"))


@pytest.fixture(scope="module")
def exactness_run():
    return run_experiment(default_config("exactness"))


@pytest.fixture(scope="module")
def stability_run():
    return run_experiment(default_config("stability"))


def _assertion(result, name):
    for a in result.assertions:
        if a.name == name:
            return a
    raise KeyError(f"{name} not among {[a.name for a in result.assertions]}")


def test_criterion_1_riccati_cross_validation(capsys, validation_scalar, validation_diag):
    failures = []
    for label, res in (("scalar", validation_scalar), ("2x2", validation_diag)):
        if res.metadata["dre_max_rel_err"] > 1e-6:
            failures.append(f"{label} DRE mismatch {res.metadata['dre_max_rel_err']:.2e}")
        if not _assertion(res, "are_residual").passed:
            failures.append(f"{label} ARE residual")
        if res.metadata["dre_compare_s"] >= 10.0:
            failures.append(f"{label} runtime {res.metadata['dre_compare_s']:.1f}s")
    s_inf = validation_scalar.constants.sigma_inf[0, 0]
    if abs(s_inf - (SQRT2 - 1.0)) > 1e-8:
        failures.append(f"scalar Sigma_inf {s_inf}")
    d_inf = validation_diag.constants.sigma_inf
    if abs(d_inf[0, 0] - (SQRT2 - 1.0)) > 1e-8 or abs(d_inf[1, 1] - (SQRT5 - 2.0)) > 1e-8:
        failures.append("2x2 Sigma_inf closed forms")
    ok = not failures
    announce(
        capsys, 1, ok,
        "closed-form vs RK4 DRE <= 1e-6 rel on both models "
        f"(worst {max(validation_scalar.metadata['dre_max_rel_err'], validation_diag.metadata['dre_max_rel_err']):.2e}), "
        f"ARE residual <= 1e-8, scalar Sigma_inf = sqrt(2)-1 +/- 1e-8, "
        f"in {validation_scalar.metadata['dre_compare_s']:.1f}s + {validation_diag.metadata['dre_compare_s']:.1f}s"
        + ("" if ok else f"; FAILED: {failures}"),
    )
    assert ok, failures


def test_criterion_2_square_root_flow_envelope(capsys, validation_scalar):
    res = validation_scalar
    beta_gap = abs(res.constants.beta - (SQRT2 + 1.0) / 2.0)
    env = _assertion(res, "psi_envelope")
    runtime = res.metadata["psi_envelope_s"]
    ok = env.passed and beta_gap <= 1e-10 and runtime < 30.0
    announce(
        capsys, 2, ok,
        f"||Psi_(t,s)|| <= alpha e^(-beta (t-s)) on the 20x20 grid with "
        f"beta = (sqrt(2)+1)/2 exactly (gap {beta_gap:.1e}), alpha = {res.constants.alpha:.4f} "
        f"from fitted M1 = {res.constants.m1_hat:.4f}; {env.detail}; {runtime:.1f}s",
    )
    assert ok, env.detail


def test_criterion_3_mean_field_exactness(capsys, exactness_run):
    res = exactness_run
    checks = [
        _assertion(res, "mean_gap_t2"),
        _assertion(res, "var_ratio_t2"),
        _assertion(res, "kalman_cov_path_bitwise"),
    ]
    runtime = res.metadata["wall_time_s"]
    ok = all(a.passed for a in checks) and runtime < 120.0
    announce(
        capsys, 3, ok,
        f"10^5 copies at t=2: {checks[0].detail}; {checks[1].detail}; "
        f"covariance path bit-identical to DRE = {checks[2].passed}; {runtime:.0f}s (< 120s)",
    )
    assert ok, [a.detail for a in checks if not a.passed]


def test_criterion_4_convergence_rates(capsys, convergence_run):
    res, _ = convergence_run
    lines = []
    ok = True
    for q in ("cov_err_2p", "mean_err"):
        for t in (1.0, 2.0, 5.0):
            f = res.fit(q, t)
            good = SLOPE_LO <= f.slope <= SLOPE_HI and f.r_squared >= R2_MIN
            ok = ok and good
            lines.append(f"{q}@t={t:g}: {f.slope:+.3f} (r2 {f.r_squared:.3f})")
    runtime = res.metadata["wall_time_s"]
    ok = ok and runtime < 600.0
    announce(
        capsys, 4, ok,
        f"log-log slopes in [{SLOPE_LO}, {SLOPE_HI}], r2 >= {R2_MIN}: "
        + "; ".join(lines) + f"; {runtime:.0f}s (< 600s)",
    )
    assert ok, lines


def test_criterion_5_uniform_in_time(capsys, convergence_run):
    res, _ = convergence_run
    a = _assertion(res, "uniform_in_time")
    announce(capsys, 5, a.passed, a.detail)
    assert a.passed, a.detail


def test_criterion_6_bound_consistency(capsys, convergence_run):
    res, _ = convergence_run
    a = _assertion(res, "bound_consistency")
    b = res.metadata["bounds"]
    announce(
        capsys, 6, a.passed,
        f"{a.detail} with C1 = {b['C1']:.3f}, C2 = {b['C2']:.3f}",
    )
    assert a.passed, a.detail


def test_criterion_7_propagation_of_chaos(capsys, chaos_run):
    res = chaos_run
    f_couple = res.fit("particle_coupling", 2.0)
    f_func = res.fit("function_mc", 2.0)
    runtime = res.metadata["wall_time_s"]
    ok = (
        SLOPE_LO <= f_couple.slope <= SLOPE_HI
        and f_couple.r_squared >= R2_MIN
        and SLOPE_LO <= f_func.slope <= SLOPE_HI
        and f_func.r_squared >= R2_MIN
        and runtime < 600.0
    )
    announce(
        capsys, 7, ok,
        f"coupling slope {f_couple.slope:+.3f} (r2 {f_couple.r_squared:.3f}), "
        f"f(x)=x functional-gap slope {f_func.slope:+.3f} (r2 {f_func.r_squared:.3f}) "
        f"at t=2; {runtime:.0f}s (< 600s)",
    )
    assert ok


def test_criterion_8_mean_field_stability(capsys, stability_run):
    res = stability_run
    checks = [
        _assertion(res, "w2_decay_rate"),
        _assertion(res, "w2_decay_r2"),
        _assertion(res, "w2_identical_zero"),
    ]
    ok = all(a.passed for a in checks)
    announce(
        capsys, 8, ok,
        f"W2 decay rate {res.metadata['w2_decay_rate']:.3f} "
        f">= 0.5 beta = {0.5 * res.constants.beta:.3f} with r2 "
        f"{res.metadata['w2_decay_r2']:.4f}; identical-init W2 stays 0",
    )
    assert ok, [a.detail for a in checks if not a.passed]


def test_criterion_9_determinism_across_workers(capsys, convergence_run, tmp_path_factory):
    _, out1 = convergence_run
    out8 = tmp_path_factory.mktemp("acceptance") / "convergence_8workers"
    cfg = default_config("convergence", output_dir=str(out8), workers=8)
    run_experiment(cfg)
    a = (out1 / "trials.csv").read_bytes()
    b = (out8 / "trials.csv").read_bytes()
    ok = a == b
    announce(
        capsys, 9, ok,
        f"trials.csv byte-identical between 1-worker and 8-worker runs "
        f"({len(a)} bytes)",
    )
    assert ok
