import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkbf_lab.ensemble import (
    DETERMINISTIC_FPF,
    PURPOSE_INIT,
    PURPOSE_OBS_PERTURB,
    PURPOSE_PROCESS,
    PERTURBED_OBSERVATION,
    STOCHASTIC_FPF,
    CoupledSystem,
    Ensemble,
    EnsembleCollapseError,
    VariantParams,
    coupled_step,
    empirical_stats,
    ensemble_moments,
    fpf_step,
    init_coupled,
    init_ensemble,
    mean_field_copy_step,
    particle_obs_perturbations,
    particle_increments,
    particle_normals,
    particle_process_noise,
    particle_step,
    prior_states,
)
from enkbf_lab.kalman import FilterState, kb_filter
from enkbf_lab.linmodel import (
    ModelParams,
    NoiseBundle,
    TimeGrid,
    psd_sqrt,
    simulate_observations,
    simulate_truth,
)
from enkbf_lab.riccati import CovarianceStepError, integrate_dre, sqrt_ricc


def reference_step(x, dZ, dt, a, h, sb, sigma_b_sq, dB, dW, g1, g2):
    """Independent one-step oracle for the scalar particle update, written
    directly from the update formula with plain floats."""
    x = list(x)
    n = len(x)
    m = sum(x) / n
    S = sum((xi - m) ** 2 for xi in x) / (n - 1)
    K = S * h
    out = []
    for i in range(n):
        drift = a * x[i] * dt
        if g1 < 1.0:
            drift += 0.5 * (1.0 - g1**2) * sigma_b_sq / S * (x[i] - m) * dt
        noise = g1 * sb * dB[i]
        pred = 0.5 * h * ((1.0 - g2**2) * m + (1.0 + g2**2) * x[i])
        innov = dZ - pred * dt
        if g2 > 0.0:
            innov += g2 * dW[i]
        out.append(x[i] + drift + noise + K * innov)
    return out


def reference_copy_step(copies, kf_mean, kf_cov, dZ_k, dt, params, dB_k=None):
    """The mean-field copy step as a kernel of its own: the exact-gain update
    Xbar <- Xbar + A Xbar dt + sigma_B dB + Sigma_t H^T (dZ - H (Xbar + m_t) dt / 2)
    that the particle step with exact moments must reproduce bit for bit."""
    x = np.asarray(copies, dtype=float)
    if params.is_scalar:
        xf = x[:, 0]
        a = float(params.A[0, 0])
        h = float(params.H[0, 0])
        sb = float(params.sigma_B[0, 0])
        K = float(kf_cov[0, 0]) * h
        m = float(kf_mean[0])
        new = xf + (a * dt) * xf
        if dB_k is not None:
            new = new + sb * np.asarray(dB_k, float)[:, 0]
        new = new + K * (float(np.atleast_1d(dZ_k)[0]) - 0.5 * h * (xf + m) * dt)
        return new[:, None]
    K = np.atleast_2d(kf_cov) @ params.H.T
    mean = np.atleast_1d(kf_mean)
    new = x + (x @ params.A.T) * dt
    if dB_k is not None:
        new = new + np.asarray(dB_k, float) @ params.sigma_B.T
    innov = np.atleast_1d(dZ_k) - 0.5 * ((x + mean) @ params.H.T) * dt
    return new + innov @ K.T


def reference_vector_step(x, mean, cov, dZ, dt, params, variant, dB=None, dW=None):
    """The d > 1 particle step written as the plain formula, with
    transposed matmul operands and length-d broadcasts; ``particle_step``
    must give its bits whatever layout it computes in."""
    g1, g2 = variant.gamma1, variant.gamma2
    mean = mean[..., None, :]
    new = x + (x @ params.A.T) * dt
    if dB is not None and g1 > 0.0:
        noise = dB @ params.sigma_B.T
        new += noise if g1 == 1.0 else g1 * noise
    if g1 < 1.0:
        G = 0.5 * (1.0 - g1 * g1) * (params.Sigma_B @ np.linalg.inv(cov))
        new += ((x - mean) @ np.swapaxes(G, -1, -2)) * dt
    if g2 == 0.0:
        pred = mean + x
    else:
        pred = (1.0 - g2 * g2) * mean + (1.0 + g2 * g2) * x
    innov = dZ[..., None, :] - ((0.5 * pred) @ params.H.T) * dt
    if g2 > 0.0:
        innov += g2 * dW
    return new + innov @ np.swapaxes(cov @ params.H.T, -1, -2)


class TestInitEnsemble:
    def test_degenerate_prior_collapses_to_mean(self):
        m = ModelParams.scalar(a=-1.0, h=1.0, sigma_b=1.0, m0=2.5, sigma0=0.0)
        ens = init_ensemble(m, 10, STOCHASTIC_FPF, NoiseBundle(1, (0,)))
        assert np.all(ens.states == 2.5)

    def test_clt_scale_sampling(self, scalar_model):
        N = 100_000
        ens = init_ensemble(scalar_model, N, STOCHASTIC_FPF, NoiseBundle(2, (0,)))
        x = ens.states[:, 0]
        assert abs(x.mean()) < 3.0 / math.sqrt(N)
        assert abs(x.var(ddof=1) - 1.0) < 3.0 * math.sqrt(2.0 / N)

    def test_fixed_seed_reproducible(self, scalar_model):
        a = init_ensemble(scalar_model, 16, STOCHASTIC_FPF, NoiseBundle(3, (0,)))
        b = init_ensemble(scalar_model, 16, STOCHASTIC_FPF, NoiseBundle(3, (0,)))
        assert np.array_equal(a.states, b.states)

    def test_rejects_single_particle(self, scalar_model):
        with pytest.raises(ValueError, match="at least 2"):
            init_ensemble(scalar_model, 1, STOCHASTIC_FPF, NoiseBundle(1, (0,)))

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            VariantParams(gamma1=1.5)
        with pytest.raises(ValueError):
            VariantParams(gamma2=-0.1)


class TestEmpiricalStats:
    def test_three_point_hand_computation(self):
        ens = Ensemble(t=0.0, states=[[0.0], [1.0], [2.0]])
        st = empirical_stats(ens)
        assert st.mean[0] == 1.0
        assert st.cov[0, 0] == 1.0  # ((1)^2 + 0 + (1)^2) / 2

    def test_degenerate_ensemble(self):
        ens = Ensemble(t=0.0, states=np.full((5, 1), 3.0))
        st = empirical_stats(ens)
        assert st.cov[0, 0] == 0.0
        assert np.all(st.errors == 0.0)

    def test_errors_sum_to_zero(self):
        rng = np.random.default_rng(8)
        for d in (1, 3):
            ens = Ensemble(t=0.0, states=rng.standard_normal((40, d)))
            st = empirical_stats(ens)
            assert np.allclose(st.errors.sum(axis=0), 0.0, atol=1e-12)

    def test_unbiasedness_monte_carlo(self):
        rng = np.random.default_rng(9)
        draws = rng.standard_normal((10_000, 10))
        vars_ = draws.var(axis=1, ddof=1)
        assert vars_.mean() == pytest.approx(1.0, abs=0.02)

    def test_matches_numpy_cov_vector(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((30, 2))
        st = empirical_stats(Ensemble(t=0.0, states=x))
        assert np.allclose(st.cov, np.cov(x.T, ddof=1), atol=1e-12)


class TestFpfStep:
    def test_two_particle_hand_oracle(self, scalar_model):
        # X = [1, 3], dt = 0.01, dZ = 0.1, dB = [0.05, -0.02]:
        # X1' = 1.21, X2' = 3.10 by direct evaluation
        ens = Ensemble(t=0.0, states=[[1.0], [3.0]], variant=STOCHASTIC_FPF)
        st = empirical_stats(ens)
        dB = np.array([[0.05], [-0.02]])
        out = fpf_step(ens, st, [0.1], 0.01, scalar_model, dB_k=dB)
        assert out.states[:, 0] == pytest.approx([1.21, 3.10], abs=1e-12)
        ref = reference_step([1.0, 3.0], 0.1, 0.01, -1.0, 1.0, 1.0, 1.0,
                             [0.05, -0.02], None, 1.0, 0.0)
        assert out.states[:, 0] == pytest.approx(ref, abs=1e-14)
        assert out.t == pytest.approx(0.01)

    @pytest.mark.parametrize("variant,needs_dw", [
        (DETERMINISTIC_FPF, False),
        (PERTURBED_OBSERVATION, True),
        (VariantParams(0.6, 0.3), True),
    ])
    def test_variant_steps_match_reference(self, scalar_model, variant, needs_dw):
        ens = Ensemble(t=0.0, states=[[1.0], [3.0], [-0.5]], variant=variant)
        st = empirical_stats(ens)
        dB = np.array([[0.05], [-0.02], [0.01]])
        dW = np.array([[0.01], [-0.03], [0.02]]) if needs_dw else None
        out = fpf_step(ens, st, [0.1], 0.01, scalar_model, dB_k=dB, dW_k=dW)
        ref = reference_step(
            [1.0, 3.0, -0.5], 0.1, 0.01, -1.0, 1.0, 1.0, 1.0,
            dB[:, 0], None if dW is None else dW[:, 0],
            variant.gamma1, variant.gamma2,
        )
        assert out.states[:, 0] == pytest.approx(ref, abs=1e-13)

    def test_vector_step_matches_scalar_blocks(self, diag_model):
        # diagonal model: each coordinate behaves like an independent scalar
        states = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0], [-2.0, 1.0]])
        ens = Ensemble(t=0.0, states=states)
        st = empirical_stats(ens)
        dB = np.zeros((4, 2))
        dZs = [0.1, -0.05]
        out = fpf_step(ens, st, dZs, 0.01, diag_model, dB_k=dB)
        for j, a in enumerate([-1.0, -2.0]):
            sub = ModelParams.scalar(a=a, h=1.0, sigma_b=1.0, m0=0.0, sigma0=1.0)
            # gain couples coordinates through the empirical cross-covariance,
            # so the vector step is the scalar step plus a cross term
            ens_j = Ensemble(t=0.0, states=states[:, j:j + 1])
            st_j = empirical_stats(ens_j)
            out_j = fpf_step(ens_j, st_j, [dZs[j]], 0.01, sub,
                             dB_k=np.zeros((4, 1)),
                             cov_override=[[st.cov[j, j]]])
            cross = st.cov[j, 1 - j] * (
                dZs[1 - j] - 0.005 * (states[:, 1 - j] + st.mean[1 - j])
            )
            assert out.states[:, j] == pytest.approx(out_j.states[:, 0] + cross, abs=1e-12)

    def test_no_coupling_or_noise_is_pure_drift(self):
        m = ModelParams.scalar(a=-0.5, h=0.0, sigma_b=0.0, m0=0.0, sigma0=1.0)
        ens = Ensemble(t=0.0, states=[[1.0], [2.0]])
        out = fpf_step(ens, empirical_stats(ens), [0.0], 0.1, m, dB_k=None)
        assert out.states[:, 0] == pytest.approx([1.0 * 0.95, 2.0 * 0.95], abs=1e-15)

    def test_collapse_refused_when_inverse_needed(self, scalar_model):
        ens = Ensemble(t=0.0, states=np.full((6, 1), 1.0), variant=DETERMINISTIC_FPF)
        with pytest.raises(EnsembleCollapseError, match="singular"):
            fpf_step(ens, empirical_stats(ens), [0.0], 0.01, scalar_model)

    def test_collapse_not_triggered_for_default_variant(self, scalar_model):
        ens = Ensemble(t=0.0, states=np.full((6, 1), 1.0), variant=STOCHASTIC_FPF)
        out = fpf_step(ens, empirical_stats(ens), [0.0], 0.01, scalar_model,
                       dB_k=np.zeros((6, 1)))
        assert np.all(np.isfinite(out.states))

    def test_gamma2_requires_perturbations(self, scalar_model):
        ens = Ensemble(t=0.0, states=[[0.0], [1.0]], variant=PERTURBED_OBSERVATION)
        with pytest.raises(ValueError, match="dW_k"):
            fpf_step(ens, empirical_stats(ens), [0.0], 0.01, scalar_model,
                     dB_k=np.zeros((2, 1)))

    def test_exchange_symmetry(self, scalar_model):
        # permuting particles and their increments permutes the output
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 1))
        dB = rng.standard_normal((6, 1)) * 0.1
        perm = np.array([3, 1, 5, 0, 2, 4])
        ens = Ensemble(t=0.0, states=x)
        out = fpf_step(ens, empirical_stats(ens), [0.2], 0.01, scalar_model, dB_k=dB)
        ens_p = Ensemble(t=0.0, states=x[perm])
        out_p = fpf_step(ens_p, empirical_stats(ens_p), [0.2], 0.01, scalar_model, dB_k=dB[perm])
        assert np.allclose(out.states[perm], out_p.states, atol=1e-14)


class TestMomentConsistency:
    """Discrete moment identities implied by the particle update."""

    def _setup(self, scalar_model, N=200, dt=1e-3, seed=12):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((N, 1))
        dB = rng.standard_normal((N, 1)) * math.sqrt(dt)
        dZ = 0.03
        ens = Ensemble(t=0.0, states=x)
        st = empirical_stats(ens)
        out = fpf_step(ens, st, [dZ], dt, scalar_model, dB_k=dB)
        return x, dB, dZ, st, out, dt

    def test_mean_follows_empirical_mean_sde_exactly(self, scalar_model):
        # the empirical mean after a step equals one Euler step of the
        # mean equation driven by the averaged increment
        x, dB, dZ, st, out, dt = self._setup(scalar_model)
        m, S = st.mean[0], st.cov[0, 0]
        dB_bar = dB[:, 0].mean()
        euler = m + (-1.0) * m * dt + dB_bar + S * (dZ - m * dt)
        assert out.states[:, 0].mean() == pytest.approx(euler, abs=1e-14)

    def test_error_view_follows_sqrt_ricc_sde_exactly(self, scalar_model):
        # xi' = (1 + sqrtRicc(S) dt) xi + (dB - dB_bar), per particle
        x, dB, dZ, st, out, dt = self._setup(scalar_model)
        G = sqrt_ricc(st.cov, scalar_model)[0, 0]
        xi = x[:, 0] - x[:, 0].mean()
        dB_tilde = dB[:, 0] - dB[:, 0].mean()
        euler = (1.0 + G * dt) * xi + dB_tilde
        xi_new = out.states[:, 0] - out.states[:, 0].mean()
        assert np.allclose(xi_new, euler, atol=1e-13)

    def test_covariance_follows_riccati_plus_martingale(self, scalar_model):
        # one Euler step of dS = Ricc(S) dt + dM + dM^T reproduces the
        # post-step empirical covariance up to the quadratic-variation
        # fluctuation of the increments
        x, dB, dZ, st, out, dt = self._setup(scalar_model, N=2000)
        N = 2000
        S = st.cov[0, 0]
        xi = x[:, 0] - x[:, 0].mean()
        ricc = -2.0 * S + 1.0 - S**2
        dM = (dB[:, 0] * xi).sum() / (N - 1)
        euler = S + ricc * dt + 2.0 * dM
        S_new = out.states[:, 0].var(ddof=1)
        G = sqrt_ricc(st.cov, scalar_model)[0, 0]
        qv_sd = dt * math.sqrt(2.0 / (N - 1))
        tol = 6.0 * (qv_sd + 2.0 * abs(G) * dt * math.sqrt(S * dt / (N - 1))) + 10.0 * dt**2 * S
        assert abs(S_new - euler) < tol


class TestVariantEquivalence:
    def test_all_variants_track_the_same_moments(self, scalar_model):
        # all family members are exact, so at N = 10^4 their first and
        # second moments agree with the filter within CLT tolerance
        N = 10_000
        g = TimeGrid(T=1.0, dt=2e-3)
        b = NoiseBundle(13, (0,))
        truth = simulate_truth(scalar_model, g, b.child(0))
        obs = simulate_observations(scalar_model, g, truth, b.child(1))
        fp = kb_filter(scalar_model, g, obs)
        results = {}
        for tag, variant in [
            ("stochastic", STOCHASTIC_FPF),
            ("deterministic", DETERMINISTIC_FPF),
            ("perturbed", PERTURBED_OBSERVATION),
        ]:
            pb = b.child(2)
            ens = init_ensemble(scalar_model, N, variant, pb)
            dB = particle_process_noise(pb, N, g, 1)
            dW = (
                particle_obs_perturbations(pb, N, g, 1)
                if variant.gamma2 > 0 else None
            )
            for k in range(g.n_steps):
                st = empirical_stats(ens)
                ens = fpf_step(ens, st, obs[k], g.dt, scalar_model,
                               dB_k=dB[k], dW_k=None if dW is None else dW[k])
            st = empirical_stats(ens)
            results[tag] = (st.mean[0], st.cov[0, 0])
        m_ref = fp.means[-1, 0]
        S_ref = fp.covs[-1, 0, 0]
        tol_mean = 4.0 * math.sqrt(S_ref / N)
        for tag, (m_N, S_N) in results.items():
            assert abs(m_N - m_ref) < tol_mean, tag
            assert abs(S_N / S_ref - 1.0) < 0.06, tag


class TestCoupledSystem:
    def test_deterministic_copies_reproduce_kalman_mean(self):
        # sigma_B = 0 and Sigma0 = 0: every copy IS the filter mean
        m = ModelParams.scalar(a=-1.0, h=1.0, sigma_b=0.0, m0=1.0, sigma0=0.0)
        g = TimeGrid(T=0.5, dt=1e-2)
        b = NoiseBundle(14, (0,))
        truth = simulate_truth(m, g, b.child(0))
        obs = simulate_observations(m, g, truth, b.child(1))
        fp = kb_filter(m, g, obs)
        copies = np.full((3, 1), 1.0)
        for k in range(g.n_steps):
            copies = mean_field_copy_step(
                copies, fp.means[k], fp.covs[k], obs[k], g.dt, m, dB_k=None
            )
            assert np.all(copies[:, 0] == fp.means[k + 1, 0])

    def test_error_copy_flow_at_equilibrium(self, scalar_model, scalar_consts):
        # sigma_B = 0, gain frozen at Sigma_inf, dZ = 0, mean 0: the copy
        # error contracts by (1 + sqrtRicc(Sigma_inf) dt) each step
        G = sqrt_ricc(scalar_consts.sigma_inf, scalar_model)[0, 0]
        dt = 1e-3
        n = 500
        copies = np.array([[1.0], [-2.0]])
        for _ in range(n):
            copies = mean_field_copy_step(
                copies, np.zeros(1), scalar_consts.sigma_inf, np.zeros(1), dt,
                scalar_model, dB_k=None,
            )
        discrete = (1.0 + G * dt) ** n
        assert copies[:, 0] == pytest.approx([discrete, -2.0 * discrete], rel=1e-12)
        assert copies[0, 0] == pytest.approx(math.exp(G * n * dt), rel=1e-3)

    def test_coupled_step_advances_both_with_shared_noise(self, scalar_model):
        g = TimeGrid(T=0.1, dt=1e-2)
        b = NoiseBundle(15, (0,))
        truth = simulate_truth(scalar_model, g, b.child(0))
        obs = simulate_observations(scalar_model, g, truth, b.child(1))
        fp = kb_filter(scalar_model, g, obs)
        pb = b.child(2)
        sys = init_coupled(init_ensemble(scalar_model, 8, STOCHASTIC_FPF, pb))
        assert np.array_equal(sys.copies, sys.ensemble.states)
        dB = particle_process_noise(pb, 8, g, 1)
        for k in range(g.n_steps):
            sys = coupled_step(sys, fp.state(k), obs[k], g.dt, scalar_model, dB_k=dB[k])
        assert sys.t == pytest.approx(0.1)
        assert not np.array_equal(sys.copies, sys.ensemble.states)

    def test_desynchronized_filter_state_rejected(self, scalar_model):
        ens = Ensemble(t=0.5, states=[[0.0], [1.0]])
        sys = CoupledSystem(ensemble=ens, copies=ens.states.copy())
        kf = FilterState(t=0.4, mean=[0.0], cov=[[1.0]])
        with pytest.raises(ValueError, match="sync"):
            coupled_step(sys, kf, [0.0], 0.01, scalar_model, dB_k=np.zeros((2, 1)))

    def test_forced_gain_keeps_gap_small(self, scalar_model):
        # with the empirical gain overridden by the exact one, the particle
        # and copy differ only through the empirical-mean fluctuation
        N = 2000
        g = TimeGrid(T=0.5, dt=5e-3)
        b = NoiseBundle(16, (0,))
        truth = simulate_truth(scalar_model, g, b.child(0))
        obs = simulate_observations(scalar_model, g, truth, b.child(1))
        fp = kb_filter(scalar_model, g, obs)
        pb = b.child(2)
        sys = init_coupled(init_ensemble(scalar_model, N, STOCHASTIC_FPF, pb))
        dB = particle_process_noise(pb, N, g, 1)
        for k in range(g.n_steps):
            sys = coupled_step(sys, fp.state(k), obs[k], g.dt, scalar_model,
                               dB_k=dB[k], cov_override=fp.covs[k])
        gap = np.abs(sys.ensemble.states - sys.copies).max()
        assert gap < 0.2

    def test_copy_shape_mismatch_rejected(self, scalar_model):
        ens = Ensemble(t=0.0, states=[[1.0], [3.0]])
        with pytest.raises(ValueError, match="copies"):
            CoupledSystem(ensemble=ens, copies=np.zeros((3, 1)))


class TestPsdAndExport:
    def test_empirical_covariance_stays_psd_vector_run(self, diag_model):
        N = 50
        g = TimeGrid(T=1.0, dt=1e-3)
        b = NoiseBundle(17, (0,))
        truth = simulate_truth(diag_model, g, b.child(0))
        obs = simulate_observations(diag_model, g, truth, b.child(1))
        pb = b.child(2)
        ens = init_ensemble(diag_model, N, STOCHASTIC_FPF, pb)
        dB = particle_process_noise(pb, N, g, 2)
        for k in range(g.n_steps):
            st = empirical_stats(ens)
            if k % 50 == 0:
                assert np.linalg.eigvalsh(st.cov).min() >= -1e-10
            ens = fpf_step(ens, st, obs[k], g.dt, diag_model, dB_k=dB[k])
        assert np.linalg.eigvalsh(empirical_stats(ens).cov).min() >= -1e-10


_KERNEL_MODELS = {
    "scalar": ModelParams.scalar(a=-1.0, h=1.0, sigma_b=1.0, m0=0.0, sigma0=1.0),
    # scalar state, two Brownian components: the matrix branch with d = 1
    "dB2": ModelParams(A=[[-1.0]], H=[[1.0]], sigma_B=[[0.6, 0.8]], m0=[0.0], Sigma0=[[1.0]]),
    "coupled2": ModelParams(
        A=[[-1.0, 0.3], [0.0, -2.0]], H=[[1.0, 0.5]], sigma_B=[[1.0, 0.2], [0.0, 0.7]],
        m0=[0.0, 1.0], Sigma0=[[1.0, 0.2], [0.2, 0.5]],
    ),
}


class TestBatchedDraws:
    def test_trial_block_draws_equal_per_trial_draws(self):
        # Sigma0 with off-diagonal entries: prior_states must keep the
        # per-draw matrix-vector product of init_ensemble
        model = _KERNEL_MODELS["coupled2"]
        noise = NoiseBundle(11, (3, 20))
        grid = TimeGrid(T=0.05, dt=1e-2)
        trials = np.array([0, 4, 7])
        batch = (trials, 2)
        x0 = prior_states(model, particle_normals(noise, 20, PURPOSE_INIT, (1, model.d), batch)[0])
        dB = particle_increments(noise, 20, grid, model.d_B, PURPOSE_PROCESS, batch)
        dW = particle_increments(noise, 20, grid, model.m, PURPOSE_OBS_PERTURB, batch)
        for j, t in enumerate(trials):
            pb = noise.child(int(t), 2)
            ens = init_ensemble(model, 20, STOCHASTIC_FPF, pb)
            assert np.array_equal(x0[j], ens.states)
            assert np.array_equal(dB[:, j], particle_process_noise(pb, 20, grid, model.d_B))
            assert np.array_equal(dW[:, j], particle_obs_perturbations(pb, 20, grid, model.m))

    def test_init_ensemble_equals_one_generator_per_particle(self):
        model = _KERNEL_MODELS["coupled2"]
        pb = NoiseBundle(5, (1, 2))
        states = init_ensemble(model, 6, STOCHASTIC_FPF, pb).states
        root = psd_sqrt(model.Sigma0)
        for i in range(6):
            z = pb.child(i, PURPOSE_INIT).generator().standard_normal(model.d)
            assert np.array_equal(states[i], model.m0 + root @ z)


class TestBatchedKernel:
    """``particle_step`` on a (B, N, d) batch must give every trial the bits
    of the per-trial public step."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        B=st.integers(min_value=1, max_value=4),
        N=st.integers(min_value=3, max_value=40),
        variant=st.sampled_from([STOCHASTIC_FPF, DETERMINISTIC_FPF, PERTURBED_OBSERVATION]),
        name=st.sampled_from(sorted(_KERNEL_MODELS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_step_equals_per_trial_fpf_step(self, seed, B, N, variant, name):
        model = _KERNEL_MODELS[name]
        rng = np.random.default_rng(seed)
        dt = 1e-2
        x = rng.standard_normal((B, N, model.d))
        dZ = rng.standard_normal((B, model.m)) * math.sqrt(dt)
        dB = rng.standard_normal((B, N, model.d_B)) * math.sqrt(dt)
        dW = rng.standard_normal((B, N, model.m)) * math.sqrt(dt)
        if variant.gamma2 == 0.0:
            dW = None
        mean, cov = ensemble_moments(x)
        got = particle_step(x, mean, cov, dZ, dt, model, variant, dB=dB, dW=dW)
        for j in range(B):
            ens = Ensemble(t=0.0, states=x[j], variant=variant)
            stats = empirical_stats(ens)
            assert np.array_equal(stats.mean, mean[j])
            assert np.array_equal(stats.cov, cov[j])
            want = fpf_step(ens, stats, dZ[j], dt, model, dB_k=dB[j],
                            dW_k=None if dW is None else dW[j])
            assert np.array_equal(got[j], want.states)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        B=st.integers(min_value=1, max_value=4),
        name=st.sampled_from(sorted(_KERNEL_MODELS)),
    )
    @settings(max_examples=30, deadline=None)
    def test_exact_moment_step_equals_mean_field_copy_step(self, seed, B, name):
        model = _KERNEL_MODELS[name]
        rng = np.random.default_rng(seed)
        dt, N = 1e-2, 7
        x = rng.standard_normal((B, N, model.d))
        dZ = rng.standard_normal((B, model.m)) * math.sqrt(dt)
        dB = rng.standard_normal((B, N, model.d_B)) * math.sqrt(dt)
        kf_mean = rng.standard_normal((B, model.d))
        kf_cov = model.Sigma0 * rng.uniform(0.1, 2.0)
        got = particle_step(x, kf_mean, kf_cov, dZ, dt, model, STOCHASTIC_FPF, dB=dB)
        for j in range(B):
            want = reference_copy_step(x[j], kf_mean[j], kf_cov, dZ[j], dt, model, dB_k=dB[j])
            assert np.array_equal(got[j], want)
            copy = mean_field_copy_step(x[j], kf_mean[j], kf_cov, dZ[j], dt, model, dB_k=dB[j])
            assert np.array_equal(copy, want)


class TestCoupledVectorKernel:
    """On coupled models every product in the d > 1 step rounds, so the
    kernel's contiguous operands must give the plain formula's bits."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        d=st.sampled_from([2, 3]),
        m=st.sampled_from([1, 2, 3]),
        d_B=st.sampled_from([1, 2, 3]),
        batch=st.lists(st.integers(min_value=1, max_value=3), max_size=2).map(tuple),
        N=st.integers(min_value=5, max_value=40),
        variant=st.sampled_from([STOCHASTIC_FPF, DETERMINISTIC_FPF, PERTURBED_OBSERVATION,
                                 VariantParams(0.6, 0.3)]),
        exact_moments=st.booleans(),
        use_out=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_step_equals_plain_formula(self, seed, d, m, d_B, batch, N, variant,
                                       exact_moments, use_out):
        rng = np.random.default_rng(seed)
        model = ModelParams(
            A=rng.standard_normal((d, d)), H=rng.standard_normal((m, d)),
            sigma_B=rng.standard_normal((d, d_B)), m0=np.zeros(d), Sigma0=np.eye(d),
        )
        dt = 1e-2
        x = rng.standard_normal(batch + (N, d))
        if exact_moments:
            mean = rng.standard_normal(batch + (d,))
            L = rng.standard_normal(batch + (d, d))
            cov = L @ np.swapaxes(L, -1, -2) + np.eye(d)
        else:
            mean, cov = ensemble_moments(x)
        dZ = rng.standard_normal(batch + (m,)) * math.sqrt(dt)
        dB = rng.standard_normal(batch + (N, d_B)) * math.sqrt(dt)
        dW = rng.standard_normal(batch + (N, m)) * math.sqrt(dt) if variant.gamma2 > 0 else None
        want = reference_vector_step(x, mean, cov, dZ, dt, model, variant, dB=dB, dW=dW)
        out = np.full_like(x, np.nan) if use_out else None
        got = particle_step(x, mean, cov, dZ, dt, model, variant, dB=dB, dW=dW, out=out)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class _MatrixBranch(ModelParams):
    """A model that takes the general (matrix) branches even when 1x1."""

    is_scalar = False


class TestScalarFastPath:
    """The scalar fast paths and the matrix branches agree on 1x1 models, up
    to the last bits that reordered products such as (a dt) x and (x a) dt
    may differ in; the DRE's float RK4 agrees bit for bit."""

    @staticmethod
    def _dre_outcome(model, grid):
        try:
            return integrate_dre(model.Sigma0, model, grid)
        except CovarianceStepError as exc:
            return str(exc)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        dt=st.sampled_from([2e-2, 1e-2, 1e-3, 5e-4, 1e-4]),
        n_steps=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_dre_branches_bit_identical(self, seed, dt, n_steps):
        # generic coefficients, whose products round: simple ones would not
        a, h, sb, s0 = np.random.default_rng(seed).uniform([-3, -2, 0, 0], [3, 2, 2, 2])
        scalar = ModelParams.scalar(a, h, sb, 0.0, s0)
        matrix = _MatrixBranch(A=[[a]], H=[[h]], sigma_B=[[sb]], m0=[0.0], Sigma0=[[s0]])
        grid = TimeGrid(T=n_steps * dt, dt=dt)
        got, want = (self._dre_outcome(m, grid) for m in (scalar, matrix))
        if isinstance(want, str):
            assert got == want
        else:
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_dre_branches_refuse_at_the_same_step(self):
        kw = dict(A=[[-1.0]], H=[[10.0]], sigma_B=[[1.0]], m0=[0.0], Sigma0=[[1.0]])
        grid = TimeGrid(T=1.0, dt=0.02)
        messages = []
        for model in (ModelParams(**kw), _MatrixBranch(**kw)):
            with pytest.raises(CovarianceStepError, match="at step 1 ") as exc:
                integrate_dre(model.Sigma0, model, grid)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        coeffs=st.tuples(
            st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.floats(0.0, 2.0),
            st.floats(-2.0, 2.0), st.floats(0.0, 2.0),
        ),
        variant=st.sampled_from([STOCHASTIC_FPF, DETERMINISTIC_FPF, PERTURBED_OBSERVATION]),
    )
    @settings(max_examples=40, deadline=None)
    def test_branches_agree(self, seed, coeffs, variant):
        a, h, sb, m0, s0 = coeffs
        scalar = ModelParams.scalar(a, h, sb, m0, s0)
        matrix = _MatrixBranch(A=[[a]], H=[[h]], sigma_B=[[sb]], m0=[m0], Sigma0=[[s0]])
        assert scalar.is_scalar and not matrix.is_scalar
        grid = TimeGrid(T=0.2, dt=1e-3)
        noise = NoiseBundle(seed, (0,))

        def close(got, want):
            scale = max(1.0, float(np.abs(want).max()))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

        truths = [simulate_truth(m, grid, noise.child(0)) for m in (matrix, scalar)]
        close(*truths)
        obs = simulate_observations(scalar, grid, truths[1], noise.child(1))
        filters = [kb_filter(m, grid, obs) for m in (matrix, scalar)]
        close(filters[0].means, filters[1].means)
        assert np.array_equal(filters[0].covs, filters[1].covs)

        rng = np.random.default_rng(seed)
        dt = 1e-2
        x = rng.standard_normal((3, 20, 1))
        dZ = rng.standard_normal((3, 1)) * math.sqrt(dt)
        dB = rng.standard_normal((3, 20, 1)) * math.sqrt(dt)
        dW = rng.standard_normal((3, 20, 1)) * math.sqrt(dt) if variant.gamma2 > 0.0 else None
        mean, cov = ensemble_moments(x)
        close(*(particle_step(x, mean, cov, dZ, dt, m, variant, dB=dB, dW=dW)
                for m in (matrix, scalar)))


class TestOutBuffer:
    """``particle_step(..., out=)`` writes the states of the allocating call."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        B=st.integers(min_value=1, max_value=3),
        name=st.sampled_from(sorted(_KERNEL_MODELS)),
        variant=st.sampled_from([STOCHASTIC_FPF, DETERMINISTIC_FPF, PERTURBED_OBSERVATION]),
    )
    @settings(max_examples=40, deadline=None)
    def test_out_equals_fresh_states(self, seed, B, name, variant):
        model = _KERNEL_MODELS[name]
        rng = np.random.default_rng(seed)
        dt, N = 1e-2, 9
        x = rng.standard_normal((B, N, model.d))
        dZ = rng.standard_normal((B, model.m)) * math.sqrt(dt)
        dB = rng.standard_normal((B, N, model.d_B)) * math.sqrt(dt)
        dW = rng.standard_normal((B, N, model.m)) * math.sqrt(dt) if variant.gamma2 > 0 else None
        mean, cov = ensemble_moments(x)
        want = particle_step(x, mean, cov, dZ, dt, model, variant, dB=dB, dW=dW)
        out = np.full_like(x, np.nan)
        got = particle_step(x, mean, cov, dZ, dt, model, variant, dB=dB, dW=dW, out=out)
        assert got is out
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(_KERNEL_MODELS))
    def test_out_aliasing_x_refused(self, name):
        model = _KERNEL_MODELS[name]
        x = np.ones((2, 5, model.d))
        x[:, 0] = 0.0
        mean, cov = ensemble_moments(x)
        with pytest.raises(ValueError, match="share memory"):
            particle_step(x, mean, cov, np.zeros((2, model.m)), 1e-2, model,
                          STOCHASTIC_FPF, out=x)
