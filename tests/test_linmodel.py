import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkbf_lab import linmodel
from enkbf_lab.linmodel import (
    ModelParams,
    NoiseBundle,
    TimeGrid,
    philox_keys,
    simulate_observations,
    simulate_truth,
    validate_assumptions,
)

EXP_MINUS_1 = 0.36787944117144233  # e^{-1}


class TestModelParams:
    def test_sigma_b_factorization_holds_by_construction(self):
        sB = np.array([[1.0, 0.5], [0.0, 2.0]])
        m = ModelParams(A=-np.eye(2), H=np.eye(2), sigma_B=sB, m0=np.zeros(2), Sigma0=np.eye(2))
        assert np.array_equal(m.Sigma_B, sB @ sB.T)
        assert m.d == 2 and m.m == 2 and m.d_B == 2

    def test_rejects_nonsymmetric_prior(self):
        with pytest.raises(ValueError, match="symmetric"):
            ModelParams(A=-np.eye(2), H=np.eye(2), sigma_B=np.eye(2),
                        m0=np.zeros(2), Sigma0=[[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite_prior(self):
        with pytest.raises(ValueError, match="semi-definite"):
            ModelParams(A=[[-1.0]], H=[[1.0]], sigma_B=[[1.0]], m0=[0.0], Sigma0=[[-0.5]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ModelParams(A=-np.eye(2), H=[[1.0]], sigma_B=np.eye(2), m0=np.zeros(2), Sigma0=np.eye(2))

    def test_arrays_are_frozen(self, scalar_model):
        with pytest.raises(ValueError):
            scalar_model.A[0, 0] = 5.0

    def test_config_roundtrip(self, diag_model):
        cfg = diag_model.to_config()
        back = ModelParams.from_config(cfg)
        assert np.array_equal(back.A, diag_model.A)
        assert np.array_equal(back.H, diag_model.H)
        assert np.array_equal(back.sigma_B, diag_model.sigma_B)
        assert np.array_equal(back.m0, diag_model.m0)
        assert np.array_equal(back.Sigma0, diag_model.Sigma0)

    def test_config_row_major_flat_lists(self):
        cfg = {
            "d": 2, "m": 1, "d_B": 2,
            "A": [0.0, 1.0, 0.0, 0.0],
            "H": [1.0, 0.0],
            "sigma_B": [1.0, 0.0, 0.0, 1.0],
            "m0": [0.0, 0.0],
            "Sigma0": [1.0, 0.0, 0.0, 1.0],
        }
        m = ModelParams.from_config(cfg)
        assert m.A[0, 1] == 1.0 and m.A[1, 0] == 0.0

    def test_config_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            ModelParams.from_config(
                {"d": 2, "m": 1, "d_B": 1, "A": [1.0], "H": [1.0, 0.0],
                 "sigma_B": [1.0, 1.0], "m0": [0.0, 0.0], "Sigma0": [1.0] * 4}
            )


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(T=5.0, dt=1e-3)
        assert g.n_steps == 5000
        assert g.times()[0] == 0.0
        assert g.times()[-1] == pytest.approx(5.0)
        assert g.index_of(1.0) == 1000

    def test_rejects_incommensurate_step(self):
        with pytest.raises(ValueError, match="grid mismatch"):
            TimeGrid(T=1.0, dt=0.3)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, dt=-0.1)

    def test_index_of_off_node(self):
        g = TimeGrid(T=1.0, dt=0.1)
        with pytest.raises(ValueError, match="node"):
            g.index_of(0.05)

    def test_refined_halves_dt(self):
        g = TimeGrid(T=2.0, dt=0.01)
        f = g.refined()
        assert f.dt == 0.005 and f.n_steps == 2 * g.n_steps

    @given(n=st.integers(min_value=1, max_value=10_000))
    def test_steps_times_dt_reaches_T(self, n):
        g = TimeGrid(T=n * 1e-3, dt=1e-3)
        assert g.n_steps == n
        assert abs(g.n_steps * g.dt - g.T) <= 1e-9 * max(1.0, g.T)


class TestNoiseBundle:
    def test_same_stream_is_bit_identical(self):
        a = NoiseBundle(123, (1, 2)).normals(100)
        b = NoiseBundle(123, (1, 2)).normals(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = NoiseBundle(123, (1, 2)).normals(100)
        b = NoiseBundle(123, (1, 3)).normals(100)
        assert not np.array_equal(a, b)

    def test_child_extends_stream(self):
        b = NoiseBundle(7, (1,))
        assert b.child(4, 2).stream_id == (1, 4, 2)

    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            NoiseBundle(5, (-1,))
        with pytest.raises(ValueError):
            NoiseBundle(-5, (1,))

    @given(seed=st.integers(min_value=0, max_value=2**63), sid=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_reproducible_for_any_key(self, seed, sid):
        x = NoiseBundle(seed, (sid,)).normals(8)
        y = NoiseBundle(seed, (sid,)).normals(8)
        assert np.array_equal(x, y)

    @given(
        seed=st.integers(min_value=0, max_value=2**130),
        prefix=st.lists(st.integers(min_value=0, max_value=2**70), max_size=5),
        ids=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6),
        purpose=st.integers(min_value=0, max_value=2**40),
    )
    @settings(max_examples=150, deadline=None)
    def test_batched_keys_equal_seed_sequence(self, seed, prefix, ids, purpose):
        arr = np.array(ids, dtype=np.uint64)
        keys = philox_keys(seed, tuple(prefix) + (arr, purpose))
        for key, i in zip(keys, ids):
            ss = np.random.SeedSequence(seed, spawn_key=tuple(prefix) + (i, purpose))
            assert np.array_equal(key, ss.generate_state(2, np.uint64))
        plain = np.random.SeedSequence(seed, spawn_key=tuple(prefix))
        assert np.array_equal(philox_keys(seed, tuple(prefix)), plain.generate_state(2, np.uint64))

    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        prefix=st.lists(st.integers(min_value=0, max_value=2**33), max_size=3),
        trials=st.integers(min_value=1, max_value=3),
        particles=st.integers(min_value=1, max_value=4),
        shape=st.sampled_from([3, (5, 2), (0, 1)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_draws_equal_per_stream_draws(self, seed, prefix, trials, particles, shape):
        # the default staging buffer, and an int shape taken as (shape,)
        b = NoiseBundle(seed, tuple(prefix))
        got = b.child_normals(np.arange(trials)[:, None], 2, np.arange(particles), 1, shape=shape)
        want = np.array([[b.child(t, 2, i, 1).generator().standard_normal(shape)
                          for i in range(particles)] for t in range(trials)])
        assert got.shape == np.moveaxis(want, 2, 0).shape
        assert np.array_equal(got, np.moveaxis(want, 2, 0))

    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        prefix=st.lists(st.integers(min_value=0, max_value=2**33), max_size=3),
        trials=st.integers(min_value=1, max_value=3),
        particles=st.integers(min_value=1, max_value=5),
        shape=st.sampled_from([(3,), (1, 2), (7, 1), (4, 2), (0, 2)]),
        staged=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_time_major_draws_equal_per_stream_draws(self, seed, prefix, trials, particles,
                                                     shape, staged):
        # a staging buffer of `staged` streams, so the draws cross its chunks
        b = NoiseBundle(seed, tuple(prefix))
        with mock.patch.object(linmodel, "_STAGE_BYTES", 8 * staged * math.prod(shape)):
            got = b.child_normals(np.arange(trials)[:, None], 2, np.arange(particles), 1,
                                  shape=shape)
        want = np.array([[b.child(t, 2, i, 1).generator().standard_normal(shape)
                          for i in range(particles)] for t in range(trials)])
        assert got.flags.c_contiguous
        assert got.shape == (shape[0], trials, particles) + shape[1:]
        assert np.array_equal(got, np.moveaxis(want, 2, 0))

    def test_batched_draws_reject_bad_ids(self):
        b = NoiseBundle(3, (1,))
        with pytest.raises(ValueError, match="non-negative"):
            b.child_normals(np.array([0, -1]), shape=2)
        with pytest.raises(ValueError, match="integers"):
            b.child_normals(np.array([0.5]), shape=2)

    def test_brownian_increment_scale(self):
        dB = NoiseBundle(99, (0,)).brownian(200_000, 1, dt=0.25)
        assert np.var(dB) == pytest.approx(0.25, rel=0.02)


class TestSimulateTruth:
    def test_no_dynamics_no_noise_stays_zero(self):
        m = ModelParams.scalar(a=0.0, h=1.0, sigma_b=0.0, m0=0.0, sigma0=0.0)
        g = TimeGrid(T=1.0, dt=0.01)
        x = simulate_truth(m, g, NoiseBundle(1, (0,)))
        assert np.all(x == 0.0)

    def test_deterministic_linear_decay(self):
        # sigma_B = 0, X_0 = 1: Euler of dx = -x dt lands within O(dt) of e^{-1}
        m = ModelParams.scalar(a=-1.0, h=1.0, sigma_b=0.0, m0=1.0, sigma0=0.0)
        g = TimeGrid(T=1.0, dt=1e-3)
        x = simulate_truth(m, g, NoiseBundle(1, (0,)))
        assert abs(float(x[-1, 0]) - EXP_MINUS_1) < 1e-3

    def test_stationary_variance_matches_lyapunov(self):
        # Var X_infty = Sigma_B / (2|A|) = 0.5 for a=-1, sigma=1
        m = ModelParams.scalar(a=-1.0, h=1.0, sigma_b=1.0, m0=0.0, sigma0=0.0)
        g = TimeGrid(T=5.0, dt=0.01)
        finals = np.array([
            simulate_truth(m, g, NoiseBundle(2024, (seed,)))[-1, 0]
            for seed in range(10_000)
        ])
        assert np.var(finals) == pytest.approx(0.5, abs=0.02)

    def test_fixed_seed_is_reproducible(self, scalar_model):
        g = TimeGrid(T=0.5, dt=1e-2)
        b = NoiseBundle(5, (0,))
        assert np.array_equal(simulate_truth(scalar_model, g, b), simulate_truth(scalar_model, g, b))

    def test_vector_path_shape(self, diag_model):
        g = TimeGrid(T=0.5, dt=1e-2)
        x = simulate_truth(diag_model, g, NoiseBundle(5, (0,)))
        assert x.shape == (51, 2)

    def test_coupled_refinement_strong_order(self, scalar_model):
        # Halving dt with pairwise-summed increments moves X_T by O(dt).
        g2 = TimeGrid(T=1.0, dt=0.005)
        diffs_coarse, diffs_fine = [], []
        for seed in range(50):
            b = NoiseBundle(77, (seed,))
            dB_fine = b.child(1).brownian(g2.n_steps, 1, g2.dt)
            x_fine = simulate_truth(scalar_model, g2, b, dB=dB_fine)[-1, 0]
            g1 = TimeGrid(T=1.0, dt=0.01)
            dB_mid = dB_fine[0::2] + dB_fine[1::2]
            x_mid = simulate_truth(scalar_model, g1, b, dB=dB_mid)[-1, 0]
            g0 = TimeGrid(T=1.0, dt=0.02)
            x_coarse = simulate_truth(scalar_model, g0, b, dB=dB_mid[0::2] + dB_mid[1::2])[-1, 0]
            diffs_coarse.append(abs(x_coarse - x_mid))
            diffs_fine.append(abs(x_mid - x_fine))
        assert np.mean(diffs_fine) < 0.8 * np.mean(diffs_coarse)
        assert np.mean(diffs_coarse) < 0.05

    def test_rejects_wrong_shape_injection(self, scalar_model):
        g = TimeGrid(T=0.1, dt=0.01)
        with pytest.raises(ValueError, match="dB"):
            simulate_truth(scalar_model, g, NoiseBundle(1, (0,)), dB=np.zeros((3, 1)))


class TestSimulateObservations:
    def test_zero_h_gives_pure_noise(self):
        m = ModelParams.scalar(a=-1.0, h=0.0, sigma_b=1.0, m0=0.0, sigma0=1.0)
        g = TimeGrid(T=0.5, dt=0.01)
        b = NoiseBundle(3, (0,))
        x = simulate_truth(m, g, b.child(0))
        obs = simulate_observations(m, g, x, b.child(1))
        expected = b.child(1).brownian(g.n_steps, 1, g.dt)
        assert np.array_equal(obs, expected)
        assert obs.shape == (g.n_steps, 1) and not obs.flags.writeable

    def test_noiseless_hook_constant_state(self):
        m = ModelParams.scalar(a=0.0, h=1.0, sigma_b=0.0, m0=3.0, sigma0=0.0)
        g = TimeGrid(T=0.2, dt=0.01)
        x = simulate_truth(m, g, NoiseBundle(1, (0,)))
        obs = simulate_observations(m, g, x, NoiseBundle(1, (1,)), dW=np.zeros((g.n_steps, 1)))
        assert np.allclose(obs, 3.0 * g.dt)

    def test_increment_variance_is_dt(self, scalar_model):
        g = TimeGrid(T=1000.0, dt=0.01)
        b = NoiseBundle(11, (0,))
        x = simulate_truth(scalar_model, g, b.child(0))
        obs = simulate_observations(scalar_model, g, x, b.child(1))
        resid = obs[:, 0] - x[:-1, 0] * g.dt
        assert np.var(resid) == pytest.approx(0.01, rel=0.01)

    def test_disjoint_increments_uncorrelated_given_truth(self, scalar_model):
        g = TimeGrid(T=0.02, dt=0.01)
        truth = simulate_truth(scalar_model, g, NoiseBundle(9, (0,)))
        r0, r1 = [], []
        for trial in range(2000):
            obs = simulate_observations(scalar_model, g, truth, NoiseBundle(9, (1, trial)))
            resid = obs[:, 0] - truth[:-1, 0] * g.dt
            r0.append(resid[0])
            r1.append(resid[1])
        corr = np.corrcoef(r0, r1)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(2000)

    def test_dimension_mismatch_rejected(self, scalar_model, diag_model):
        g = TimeGrid(T=0.1, dt=0.01)
        x = simulate_truth(diag_model, g, NoiseBundle(1, (0,)))
        with pytest.raises(ValueError, match="truth"):
            simulate_observations(scalar_model, g, x, NoiseBundle(1, (1,)))


class TestValidateAssumptions:
    def test_stable_scalar_all_hold(self, scalar_model):
        rep = validate_assumptions(scalar_model)
        assert rep.a1 and rep.a2 and rep.a3
        assert rep.mu_A == pytest.approx(1.0)

    def test_unstable_unobservable_fails_a1(self):
        m = ModelParams.scalar(a=1.0, h=0.0, sigma_b=1.0, m0=0.0, sigma0=1.0)
        rep = validate_assumptions(m)
        assert not rep.a1
        assert not rep.detectable
        assert rep.stabilizable

    def test_jordan_block_detectable_but_marginal(self):
        # double integrator observed in position: Hautus rank is full at the
        # zero eigenvalue, yet mu(A) = 0
        m = ModelParams(
            A=[[0.0, 1.0], [0.0, 0.0]],
            H=[[1.0, 0.0]],
            sigma_B=np.eye(2),
            m0=np.zeros(2),
            Sigma0=np.eye(2),
        )
        rep = validate_assumptions(m)
        assert rep.a1
        assert rep.a2
        assert not rep.a3
        assert rep.mu_A == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_noise_fails_a2(self):
        m = ModelParams.scalar(a=-1.0, h=1.0, sigma_b=0.0, m0=0.0, sigma0=1.0)
        rep = validate_assumptions(m)
        assert not rep.a2
        assert rep.sigma_B_min_eig == 0.0

