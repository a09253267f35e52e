import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkbf_lab import cli, harness
from enkbf_lab.harness import (
    AltInit,
    ExperimentConfig,
    OutputDirConflict,
    acceptance_model,
    config_hash,
    default_config,
    diag2_model,
    load_result_summary,
    run_exactness,
    run_experiment,
    run_riccati_validation,
    run_stability,
    trial_bundle,
    write_result,
)
from enkbf_lab.ensemble import DETERMINISTIC_FPF, PERTURBED_OBSERVATION, VariantParams
from enkbf_lab.linmodel import AssumptionError, ModelParams, TimeGrid
from enkbf_lab.metrics import TrialRow, mse_curve, rate_fit


def tiny_convergence_cfg(**over):
    base = dict(
        grid=TimeGrid(T=0.5, dt=2e-3),
        N_list=(25, 50),
        n_trials=30,
        checkpoints=(0.25, 0.5),
        dt_bias_check=False,
    )
    base.update(over)
    return default_config("convergence", **base)


class TestConfig:
    def test_json_roundtrip(self):
        cfg = tiny_convergence_cfg()
        back = ExperimentConfig.from_json(cfg.to_json())
        assert config_hash(back) == config_hash(cfg)

    def test_hash_ignores_runtime_knobs(self, tmp_path):
        cfg = tiny_convergence_cfg()
        cfg2 = ExperimentConfig.from_json(cfg.to_json(), workers=8,
                                          output_dir=str(tmp_path))
        assert config_hash(cfg2) == config_hash(cfg)

    def test_hash_tracks_science_fields(self):
        cfg = tiny_convergence_cfg()
        cfg2 = ExperimentConfig.from_json(cfg.to_json(), master_seed=999)
        assert config_hash(cfg2) != config_hash(cfg)

    def test_rate_experiments_require_n_above_4p(self):
        with pytest.raises(ValueError, match="4p"):
            tiny_convergence_cfg(N_list=(4, 50), p=1)
        with pytest.raises(ValueError, match="4p"):
            default_config("chaos", N_list=(8, 100), p=2,
                           grid=TimeGrid(T=0.5, dt=2e-3), checkpoints=(0.5,))

    def test_checkpoints_must_sit_on_grid(self):
        with pytest.raises(ValueError, match="node"):
            tiny_convergence_cfg(checkpoints=(0.2501,))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentConfig(name="nope", model=acceptance_model(),
                             grid=TimeGrid(T=1.0, dt=0.1))

    def test_alt_init_validation(self):
        with pytest.raises(ValueError):
            AltInit(family="cauchy")

    @pytest.mark.parametrize("field, value", [
        ("record_every", 0), ("n_copies", 1), ("workers", 0), ("psi_grid_points", 1),
        ("compare_stride_t", 0.0), ("compare_stride_t", float("nan")),
        ("init_family", "cauchy"), ("dt_bias_trials", 0), ("psi_dt", 0.0), ("psi_dt", -1e-3),
    ])
    def test_bad_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_convergence_cfg(**{field: value})


_CODEC_MODELS = (
    acceptance_model(),
    diag2_model(),
    ModelParams(A=[[-1.0]], H=[[1.0]], sigma_B=[[0.6, 0.8]], m0=[0.5], Sigma0=[[2.0]]),
)
_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def _configs(draw):
    dt = draw(st.sampled_from([1e-3, 2e-3, 0.01, 0.25]))
    n = draw(st.integers(min_value=1, max_value=400))
    t0 = draw(st.sampled_from([0.0, 0.5]))
    grid = TimeGrid(T=t0 + n * dt, dt=dt, t0=t0)
    ckpt = draw(st.lists(st.integers(min_value=0, max_value=n), unique=True, max_size=3))
    p = draw(st.integers(min_value=1, max_value=3))
    return ExperimentConfig(
        name=draw(st.sampled_from(harness.EXPERIMENTS)),
        model=draw(st.sampled_from(_CODEC_MODELS)),
        grid=grid,
        N_list=draw(st.lists(st.integers(min_value=4 * p + 1, max_value=10**6),
                             min_size=1, max_size=4, unique=True)),
        n_trials=draw(st.integers(min_value=1, max_value=10**4)),
        p=p,
        variant=VariantParams(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))),
        master_seed=draw(st.integers(min_value=0, max_value=2**70)),
        output_dir=draw(st.none() | st.just("somewhere")),
        checkpoints=[t0 + k * dt for k in ckpt],
        n_copies=draw(st.integers(min_value=2, max_value=10**6)),
        init_family=draw(st.sampled_from(harness.INIT_FAMILIES)),
        alt_init=AltInit(draw(st.sampled_from(harness.INIT_FAMILIES)), draw(_finite),
                         draw(st.floats(0.0, 1e6))),
        record_every=draw(st.integers(min_value=1, max_value=10**4)),
        w2_fit_window=(draw(_finite), draw(_finite)),
        psi_grid_points=draw(st.integers(min_value=2, max_value=100)),
        psi_dt=draw(st.floats(min_value=1e-6, max_value=1.0)),
        compare_stride_t=draw(st.floats(min_value=1e-6, max_value=10.0)),
        dt_bias_check=draw(st.booleans()),
        dt_bias_trials=draw(st.integers(min_value=1, max_value=10**4)),
        workers=draw(st.integers(min_value=1, max_value=64)),
    )


class TestConfigCodec:
    @given(cfg=_configs())
    @settings(max_examples=100, deadline=None)
    def test_json_roundtrip_keeps_every_field(self, cfg):
        data = json.loads(json.dumps(cfg.to_json()))
        back = ExperimentConfig.from_json(data)
        for f in dataclasses.fields(ExperimentConfig):
            if f.name in ("output_dir", "workers"):
                assert f.name not in data
                assert getattr(back, f.name) == f.default
            elif f.name == "model":
                assert back.model.to_config() == cfg.model.to_config()
            else:
                assert getattr(back, f.name) == getattr(cfg, f.name), f.name
        assert config_hash(back) == config_hash(cfg)

    def test_missing_keys_take_class_defaults(self):
        data = {"name": "exactness", "model": acceptance_model().to_config(),
                "grid": {"T": 5.0, "dt": 1e-3}}
        back = ExperimentConfig.from_json(data)
        assert back.n_trials == 200 and back.psi_dt == 1e-3 and back.checkpoints == (1.0, 2.0, 5.0)
        assert back.alt_init == AltInit() and back.variant == VariantParams()

    def test_unknown_key_rejected_by_name(self):
        data = tiny_convergence_cfg().to_json()
        data["n_trails"] = 5
        with pytest.raises(ValueError, match="n_trails"):
            ExperimentConfig.from_json(data)


class TestSeedTree:
    def test_trials_get_disjoint_streams(self):
        a = trial_bundle(7, "convergence", 100, 0).child(0).normals(4)
        b = trial_bundle(7, "convergence", 100, 1).child(0).normals(4)
        c = trial_bundle(7, "convergence", 200, 0).child(0).normals(4)
        d = trial_bundle(7, "chaos", 100, 0).child(0).normals(4)
        draws = [a, b, c, d]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_trial_streams_reproducible(self):
        a = trial_bundle(7, "convergence", 100, 3).child(2, 5).normals(4)
        b = trial_bundle(7, "convergence", 100, 3).child(2, 5).normals(4)
        assert np.array_equal(a, b)


class TestRiccatiValidation:
    def test_small_scalar_run_passes(self):
        cfg = default_config(
            "riccati_validation",
            grid=TimeGrid(T=2.0, dt=1e-3),
            psi_grid_points=8,
            psi_dt=1e-3,
            compare_stride_t=0.25,
        )
        res = run_riccati_validation(cfg)
        assert res.passed, [a for a in res.assertions if not a.passed]
        names = {a.name for a in res.assertions}
        assert {"dre_cross_validation", "are_residual", "psi_envelope",
                "sigma_inf_closed_form"} <= names
        assert res.metadata["dre_max_rel_err"] <= 1e-6
        kappas = res.metadata["phi_kappa_by_t0"]
        assert set(kappas) == {0.0, 0.5, 1.0, 2.0}
        assert all(0.0 < k < 50.0 for k in kappas.values())

    def test_diagonal_model_run_passes(self):
        cfg = default_config(
            "riccati_validation",
            model=diag2_model(),
            grid=TimeGrid(T=2.0, dt=1e-3),
            psi_grid_points=8,
            compare_stride_t=0.25,
        )
        res = run_riccati_validation(cfg)
        assert res.passed, [a for a in res.assertions if not a.passed]
        s = res.constants.sigma_inf
        assert s[0, 0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-8)
        assert s[1, 1] == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-8)

    def test_refuses_undetectable_model(self):
        bad = ModelParams.scalar(1.0, 0.0, 1.0, 0.0, 1.0)
        cfg = default_config("riccati_validation", model=bad,
                             grid=TimeGrid(T=1.0, dt=1e-3))
        with pytest.raises(AssumptionError):
            run_riccati_validation(cfg)

    def test_refuses_model_without_a2(self):
        # A1 holds but Sigma_B is singular, so beta = 0 and the envelope is void
        bad = ModelParams(
            A=np.array([[-1.0, 1.0], [0.0, -1.0]]),
            H=np.array([[1.0, 0.0]]),
            sigma_B=np.array([[0.0], [1.0]]),
            m0=np.zeros(2),
            Sigma0=np.eye(2),
        )
        cfg = default_config("riccati_validation", model=bad,
                             grid=TimeGrid(T=1.0, dt=1e-3))
        with pytest.raises(AssumptionError, match="riccati_validation refused.*'a2'"):
            run_riccati_validation(cfg)


@pytest.fixture(scope="module")
def infinite_alpha_run(tmp_path_factory):
    """riccati_validation on a model whose alpha overflows to inf:
    Sigma_inf is ill-conditioned (about 1e3) though A1 and A2 hold."""
    model = ModelParams(
        A=np.array([[2.0, 1.0], [3.0, -1.0]]), H=np.array([[-1.0, 1.0]]),
        sigma_B=np.eye(2), m0=np.zeros(2), Sigma0=np.eye(2),
    )
    out = tmp_path_factory.mktemp("infinite_alpha")
    cfg = default_config("riccati_validation", model=model, grid=TimeGrid(T=1.0, dt=1e-3),
                         psi_grid_points=4, output_dir=str(out))
    return run_experiment(cfg), out


class TestInfiniteAlpha:
    def test_psi_envelope_fails_as_uncheckable(self, infinite_alpha_run):
        res, _ = infinite_alpha_run
        assert res.constants.alpha == math.inf
        (psi,) = [a for a in res.assertions if a.name == "psi_envelope"]
        assert not psi.passed
        assert "uncheckable" in psi.detail and "alpha" in psi.detail

    def test_config_echo_is_strict_json(self, infinite_alpha_run):
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        _, out = infinite_alpha_run
        echo = json.loads((out / "config_echo.json").read_text(), parse_constant=refuse)
        assert echo["metadata"]["alpha"] == "inf"
        assert echo["metadata"]["psi_min_margin"] == "inf"
        assert echo["passed"] is False


class TestExactness:
    def test_small_run_tracks_filter_moments(self):
        cfg = default_config(
            "exactness",
            grid=TimeGrid(T=2.0, dt=2e-3),
            n_copies=4000,
            checkpoints=(1.0, 2.0),
        )
        res = run_exactness(cfg)
        assert res.passed, [a for a in res.assertions if not a.passed]
        assert res.metadata["cov_path_bitwise"] is True
        gaps = [r for r in res.rows if r.quantity == "mean_gap"]
        assert len(gaps) == 2

    def test_skewed_initial_law_still_tracks_moments(self):
        # first and second moments of the copies follow the filter even for
        # a non-Gaussian initial law with matched moments
        cfg = default_config(
            "exactness",
            grid=TimeGrid(T=2.0, dt=2e-3),
            n_copies=4000,
            checkpoints=(1.0, 2.0),
            init_family="exponential",
        )
        res = run_exactness(cfg)
        moment_checks = [a for a in res.assertions
                         if a.name.startswith(("mean_gap", "var_ratio"))]
        assert moment_checks and all(a.passed for a in moment_checks)
        skews = {r.t: r.value for r in res.rows if r.quantity == "skewness"}
        assert abs(skews[2.0]) < abs(skews[1.0])  # skew dissipates


class TestStability:
    def test_w2_decays_and_identical_init_is_zero(self):
        cfg = default_config(
            "stability",
            grid=TimeGrid(T=3.0, dt=2e-3),
            n_copies=1500,
            record_every=50,
            w2_fit_window=(0.5, 3.0),
        )
        res = run_stability(cfg)
        assert res.passed, [a for a in res.assertions if not a.passed]
        assert res.metadata["w2_decay_rate"] >= 0.5 * res.constants.beta
        w2 = [r.value for r in res.rows if r.quantity == "w2"]
        assert w2[0] > w2[-1]

    def test_mean_shift_only_follows_filter_gap(self):
        # same prior covariance: the population W2 equals the filter-mean
        # gap, which contracts deterministically
        cfg = default_config(
            "stability",
            grid=TimeGrid(T=2.0, dt=2e-3),
            n_copies=1500,
            record_every=100,
            alt_init=AltInit(family="gaussian", mean=1.0, var=1.0),
            w2_fit_window=(0.5, 2.0),
        )
        res = run_stability(cfg)
        w2 = {r.t: r.value for r in res.rows if r.quantity == "w2"}
        assert w2[2.0] < w2[0.2] < 1.0


@pytest.fixture(scope="module")
def small_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("conv") / "run1"
    cfg = tiny_convergence_cfg(output_dir=str(out))
    return run_experiment(cfg), out


class TestConvergenceSmall:
    def test_errors_decrease_with_n(self, small_result):
        res, _ = small_result
        for t in (0.25, 0.5):
            curve = res.curve("cov_err_2p", t)
            assert curve[-1].estimate < curve[0].estimate

    def test_rows_are_canonically_sorted(self, small_result):
        res, _ = small_result
        keys = [r.sort_key() for r in res.rows]
        assert keys == sorted(keys)

    def test_output_files_written(self, small_result):
        _, out = small_result
        res, _ = small_result
        for name in ("trials.csv", "curves.csv", "fits.csv", "constants.txt",
                     "config_echo.json"):
            assert (out / name).exists(), name
        stamp, header = (out / "trials.csv").read_text().splitlines()[:2]
        assert stamp == f"# config_hash={config_hash(res.config)}"
        assert header == "N,trial,t,quantity,value"
        # every result file carries the config hash
        for name in ("curves.csv", "fits.csv", "constants.txt"):
            assert (out / name).read_text().splitlines()[0] == stamp
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["config_hash"] == config_hash(res.config)

    def test_worker_count_does_not_change_bytes(self, small_result, tmp_path):
        _, out1 = small_result
        cfg = tiny_convergence_cfg(output_dir=str(tmp_path / "run2"), workers=2)
        run_experiment(cfg)
        a = (out1 / "trials.csv").read_bytes()
        b = (tmp_path / "run2" / "trials.csv").read_bytes()
        assert a == b

    def test_hash_guard_refuses_then_force_overwrites(self, small_result, tmp_path):
        res, _ = small_result
        out = tmp_path / "guarded"
        write_result(res, out)
        other = tiny_convergence_cfg(master_seed=4242, n_trials=30)
        cfg2 = ExperimentConfig.from_json(other.to_json(), output_dir=str(out))
        with pytest.raises(OutputDirConflict):
            run_experiment(cfg2)
        run_experiment(cfg2, force=True)
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["config_hash"] == config_hash(cfg2)

    def test_refuses_vector_model(self, diag_model):
        cfg = default_config(
            "convergence", model=diag_model, grid=TimeGrid(T=0.5, dt=2e-3),
            N_list=(25, 50), n_trials=30, checkpoints=(0.5,), dt_bias_check=False,
        )
        with pytest.raises(ValueError, match="scalar"):
            run_experiment(cfg)

    def test_refuses_marginally_stable_model(self):
        model = ModelParams.scalar(0.0, 1.0, 1.0, 0.0, 1.0)
        cfg = tiny_convergence_cfg(model=model)
        with pytest.raises(AssumptionError, match="a3"):
            run_experiment(cfg)


class TestDegenerateConfigs:
    def test_single_n_convergence_has_curves_but_no_fit(self):
        cfg = tiny_convergence_cfg(N_list=(25,), checkpoints=(0.5,))
        res = run_experiment(cfg)
        assert res.curve("cov_err_2p", 0.5)[0].N == 25
        assert res.fits == []
        assert res.passed

    def test_noiseless_chaos_has_zero_coupling_error(self):
        # sigma_B = 0 and Sigma0 = 0: particles and copies coincide exactly
        model = ModelParams.scalar(a=-1.0, h=1.0, sigma_b=0.0, m0=0.5, sigma0=0.0)
        cfg = default_config(
            "chaos", model=model, grid=TimeGrid(T=0.2, dt=2e-3),
            N_list=(10, 20), n_trials=30, checkpoints=(0.2,),
        )
        res = run_experiment(cfg)
        coupling = [r.value for r in res.rows if r.quantity == "coupling_err"]
        assert coupling and all(v == 0.0 for v in coupling)
        assert res.fits == []
        assert res.passed

    def test_degenerate_exactness_copies_equal_filter_mean(self):
        model = ModelParams.scalar(a=-1.0, h=1.0, sigma_b=0.0, m0=1.0, sigma0=0.0)
        cfg = default_config(
            "exactness", model=model, grid=TimeGrid(T=0.5, dt=2e-3),
            n_copies=50, checkpoints=(0.5,),
        )
        res = run_exactness(cfg)
        gap = next(r.value for r in res.rows if r.quantity == "mean_gap")
        assert gap < 1e-12
        assert res.passed, [a for a in res.assertions if not a.passed]

    def test_noiseless_convergence_passes_dt_bias_check(self):
        # sigma_B = 0 and Sigma0 = 0: both resolutions are exact, and the
        # relative change of a zero MSE is undefined
        model = ModelParams.scalar(a=-1.0, h=1.0, sigma_b=0.0, m0=0.5, sigma0=0.0)
        cfg = tiny_convergence_cfg(model=model, dt_bias_check=True, dt_bias_trials=2)
        res = run_experiment(cfg)
        check = next(a for a in res.assertions if a.name == "dt_bias_control")
        assert check.passed, check.detail
        assert "both 0" in check.detail
        # the last checkpoint's level is roundoff against an exact 0 at the first
        uniform = next(a for a in res.assertions if a.name == "uniform_in_time")
        assert uniform.passed, uniform.detail
        assert "both 0 up to roundoff" in uniform.detail
        assert res.passed, [a for a in res.assertions if not a.passed]

    def test_stability_requires_constants(self):
        model = ModelParams.scalar(a=-1.0, h=1.0, sigma_b=0.0, m0=0.0, sigma0=1.0)
        cfg = default_config(
            "stability", model=model, grid=TimeGrid(T=0.5, dt=2e-3), n_copies=100,
        )
        with pytest.raises(AssumptionError, match="beta"):
            run_stability(cfg)


def test_synthetic_rate_rows_fit_slope_minus_one():
    # harness aggregation path on fabricated error records
    rows = [
        TrialRow(N=N, trial=i, t=1.0, quantity="coupling_err", value=5.0 / N)
        for N in (64, 128, 256) for i in range(40)
    ]
    fit = rate_fit(mse_curve(rows, "particle_coupling", t=1.0))
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size and runs
    the jobs in this process."""

    sizes: list = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("workers, cpus, expected", [(64, 3, 3), (64, 1000, 30), (2, 1000, 2)])
def test_pool_size_clamped_to_jobs_and_cpus(monkeypatch, workers, cpus, expected):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(harness, "_WORKER_PLAN", None)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    # 30 trials at one N, in jobs sized for min(workers, cpus) processes
    small = dict(N_list=(25,), checkpoints=(0.5,), grid=TimeGrid(T=0.5, dt=5e-2))
    cfg = tiny_convergence_cfg(workers=workers, **small)
    serial = tiny_convergence_cfg(**small)
    rows = harness.run_convergence(cfg).rows
    assert _RecordingPool.sizes == [expected]
    assert rows == harness.run_convergence(serial).rows


class TestChaosSmall:
    def test_structure_and_decay(self):
        cfg = default_config(
            "chaos",
            grid=TimeGrid(T=0.5, dt=2e-3),
            N_list=(25, 50, 100),
            n_trials=30,
            checkpoints=(0.5,),
        )
        res = run_experiment(cfg)
        curve = res.curve("particle_coupling", 0.5)
        assert [pt.N for pt in curve] == [25, 50, 100]
        assert curve[-1].estimate < curve[0].estimate
        assert res.fit("particle_coupling", 0.5).slope < -0.4
        absx = res.curve("function_mc_abs", 0.5)
        assert len(absx) == 3

    def test_requires_default_variant(self):
        from enkbf_lab.ensemble import PERTURBED_OBSERVATION
        cfg = default_config(
            "chaos",
            grid=TimeGrid(T=0.5, dt=2e-3),
            N_list=(25, 50, 100),
            n_trials=30,
            checkpoints=(0.5,),
            variant=PERTURBED_OBSERVATION,
        )
        with pytest.raises(ValueError, match="variant"):
            run_experiment(cfg)


class TestCli:
    def test_validate_subcommand_end_to_end(self, tmp_path, capsys):
        cfg = default_config(
            "riccati_validation",
            grid=TimeGrid(T=1.0, dt=1e-3),
            psi_grid_points=6,
            compare_stride_t=0.25,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_json()))
        out_dir = tmp_path / "out"
        rc = cli.main(["validate", "--config", str(cfg_path), "--out", str(out_dir)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in captured
        assert (out_dir / "trials.csv").exists()

        rc = cli.main(["report", "--dir", str(out_dir)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "riccati_validation" in captured

    def test_mismatched_config_name_rejected(self, tmp_path):
        cfg = default_config("riccati_validation", grid=TimeGrid(T=1.0, dt=1e-3))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_json()))
        with pytest.raises(SystemExit):
            cli.main(["exactness", "--config", str(cfg_path)])

    def test_report_missing_dir(self, tmp_path):
        assert cli.main(["report", "--dir", str(tmp_path / "nope")]) == 2

    def test_seed_override_applies(self, tmp_path):
        cfg = default_config("riccati_validation", grid=TimeGrid(T=1.0, dt=1e-3))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_json()))
        built = cli._build_config(
            _args(config=str(cfg_path), seed=777), "riccati_validation"
        )
        assert built.master_seed == 777


def _args(config=None, seed=None, workers=None, out=None, force=False):
    class A:
        pass

    a = A()
    a.config = config
    a.seed = seed
    a.workers = workers
    a.out = out
    a.force = force
    return a


def test_load_result_summary_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_result_summary(tmp_path)


# Scalar state driven by two Brownian components: the rate experiments then
# take the general (matrix) branch of the particle kernel.
_DB2_MODEL = ModelParams(A=[[-1.0]], H=[[1.0]], sigma_B=[[0.6, 0.8]], m0=[0.0], Sigma0=[[1.0]])
_GOLDEN_COMMON = dict(
    grid=TimeGrid(T=0.2, dt=2e-3), N_list=(10, 20, 40), n_trials=30,
    checkpoints=(0.1, 0.2), master_seed=20181017,
)
# sha256 of trials.csv as written by the per-trial, per-particle engine that
# the trial-batched engine replaced; the batched engine must reproduce them.
_GOLDEN = {
    "convergence_dt_bias": (
        dict(name="convergence", dt_bias_check=True, dt_bias_trials=3),
        "dd7b8f5f8a8bd0b6fd90a2fba9dbd97d3fb27f2a50f2fb90e7e141db96f4f963",
    ),
    "chaos": (
        dict(name="chaos"),
        "4d7f109061dbb0a0a5685459491691b34106981d87e29ee0349c97ecc92de456",
    ),
    "convergence_perturbed_dB2": (
        dict(name="convergence", model=_DB2_MODEL, variant=PERTURBED_OBSERVATION,
             dt_bias_check=False),
        "ca3c484172a4ab11d2fd75b1b0fdb2ae87c094a74f76e04878d5b3705fc2f364",
    ),
    "convergence_deterministic": (
        dict(name="convergence", variant=DETERMINISTIC_FPF, dt_bias_check=True,
             dt_bias_trials=3),
        "f17d0598fa9096a8d30588339769e7f58d8dfa26e2ac79696bb9348c0052eca1",
    ),
    "chaos_dB2": (
        dict(name="chaos", model=_DB2_MODEL),
        "d85bc69eb2ecff18683fe57a04079a31b01c9d50f16c0cdc45e790b6ce686bd5",
    ),
}


# sha256 of trials.csv as written with the separate mean-field copy kernel
# and hand-written moment estimators, before `particle_step` replaced them.
_MEANFIELD_COMMON = dict(master_seed=20181017)
_EXACTNESS_SMALL = dict(
    name="exactness", grid=TimeGrid(T=0.2, dt=2e-3), n_copies=2000, checkpoints=(0.1, 0.2),
)
_GOLDEN_MEANFIELD = {
    "exactness_gaussian": (
        _EXACTNESS_SMALL,
        "6eef291beed243a9a17997caa4faee46a49b0239485d2903af50d8bae621f215",
    ),
    "exactness_exponential": (
        dict(_EXACTNESS_SMALL, init_family="exponential"),
        "6f2764f956bbe7a485d196104f6407876381c33caa173ce5c1c7c22498b7ed76",
    ),
    "stability_diag2": (
        dict(name="stability", model=diag2_model(), grid=TimeGrid(T=0.4, dt=2e-3),
             n_copies=500, record_every=20, w2_fit_window=(0.1, 0.4)),
        "d32b94f6e98dd06543df6ebdc50d0a7230778547f65189b4dd58b20bd5691a41",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN) + sorted(_GOLDEN_MEANFIELD))
def test_trials_csv_matches_golden_hash(case, tmp_path):
    if case in _GOLDEN:
        (over, digest), common = _GOLDEN[case], _GOLDEN_COMMON
    else:
        (over, digest), common = _GOLDEN_MEANFIELD[case], _MEANFIELD_COMMON
    over = dict(over)
    cfg = default_config(over.pop("name"), output_dir=str(tmp_path), **common, **over)
    run_experiment(cfg)
    assert hashlib.sha256((tmp_path / "trials.csv").read_bytes()).hexdigest() == digest
