import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from enkbf_lab import riccati
from enkbf_lab.linmodel import ModelParams, TimeGrid
from enkbf_lab.riccati import (
    AreConvergenceError,
    CovarianceStepError,
    DegenerateInitialCovariance,
    PathCoverageError,
    fit_envelope_constant,
    explicit_dre_solution,
    integrate_dre,
    ricc_rhs,
    solve_are,
    spectral_norm,
    sqrt_ricc,
    transition_segments,
)
from enkbf_lab.linmodel import AssumptionError


def transition_phi(s, t, path, params, grid):
    """Phi_{t,s} of dPhi/dt = (A - Sigma_t H^T H) Phi, one segment."""
    return transition_segments(1.0, [grid.index_of(s), grid.index_of(t)], path, params, grid)[0]


def transition_psi(s, t, path, params, grid):
    """Psi_{t,s} of dPsi/dt = (A - Q_t H^T H / 2) Psi, one segment."""
    return transition_segments(0.5, [grid.index_of(s), grid.index_of(t)], path, params, grid)[0]

def reference_integrate_dre(Sigma0, params, grid):
    """The matrix RK4 of :func:`integrate_dre` with a PSD check after every
    step: the oracle for the chunked check."""
    A, Sigma_B, HtH = params.A, params.Sigma_B, params.H.T @ params.H
    dt = grid.dt

    def ricc(Q):
        AQ = A @ Q
        return AQ + AQ.T + Sigma_B - Q @ HtH @ Q

    Q = 0.5 * (Sigma0 + Sigma0.T)
    out = [Q]
    for k in range(grid.n_steps):
        k1 = ricc(Q)
        k2 = ricc(Q + 0.5 * dt * k1)
        k3 = ricc(Q + 0.5 * dt * k2)
        k4 = ricc(Q + dt * k3)
        Q = Q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        Q = 0.5 * (Q + Q.T)
        w_min = float(np.linalg.eigvalsh(Q).min())
        if w_min < -1e-10 * max(1.0, float(np.abs(Q).max())):
            raise CovarianceStepError(
                f"covariance lost PSD at step {k + 1} (min eig {w_min:.3e}); "
                f"dt={dt} is too large for this model"
            )
        out.append(Q)
    return np.array(out)


def _dre_outcome(integrate, params, grid):
    """The path, or the refusal or (warnings being errors) the overflow
    warning it ends in."""
    try:
        return integrate(params.Sigma0, params, grid)
    except (CovarianceStepError, RuntimeWarning) as exc:
        return f"{type(exc).__name__}: {exc}"


# A coupled 2x2 model started 1 % off its steady state: at dt = 0.177 RK4
# amplifies the offset a little per step until step 7 loses PSD.
_S1 = (math.sqrt(101.0) - 1.0) / 100.0
_LATE_LOSS = ModelParams(
    A=[[-1.0, 0.5], [0.0, -2.0]], H=[[10.0, 0.0], [0.0, 1.0]],
    sigma_B=[[1.0, 0.0], [0.3, 1.0]], m0=[0.0, 0.0], Sigma0=[[1.01 * _S1, 0.0], [0.0, 1.0]],
)


SQRT2 = math.sqrt(2.0)
SIGMA_INF_SCALAR = SQRT2 - 1.0  # positive root of -S^2 - 2S + 1 = 0
BETA_SCALAR = (SQRT2 + 1.0) / 2.0  # Sigma_B / (2 Sigma_inf)


class TestVectorFields:
    def test_ricc_zero_covariance_leaves_sigma_b(self, scalar_model):
        assert ricc_rhs(np.zeros((1, 1)), scalar_model)[0, 0] == 1.0

    def test_ricc_scalar_arithmetic(self, scalar_model):
        # A=-1, H=1, Sigma_B=1, Q=1: -2 + 1 - 1 = -2
        assert ricc_rhs(np.ones((1, 1)), scalar_model)[0, 0] == -2.0

    def test_ricc_vanishes_at_steady_state(self, scalar_model):
        Q = np.array([[SIGMA_INF_SCALAR]])
        assert abs(ricc_rhs(Q, scalar_model)[0, 0]) < 1e-14

    def test_sqrt_ricc_zero_covariance_is_drift(self, diag_model):
        assert np.array_equal(sqrt_ricc(np.zeros((2, 2)), diag_model), diag_model.A)

    def test_sqrt_ricc_no_observation_is_drift(self):
        m = ModelParams.scalar(a=-1.0, h=0.0, sigma_b=1.0, m0=0.0, sigma0=1.0)
        assert sqrt_ricc(np.array([[7.0]]), m)[0, 0] == -1.0

    def test_sqrt_ricc_at_steady_state(self, scalar_model):
        # A - Sigma_inf/2 = -(1 + sqrt(2))/2
        val = sqrt_ricc(np.array([[SIGMA_INF_SCALAR]]), scalar_model)[0, 0]
        assert val == pytest.approx(-(1.0 + SQRT2) / 2.0, abs=1e-14)

    def test_dimension_mismatch(self, scalar_model):
        with pytest.raises(ValueError):
            ricc_rhs(np.eye(2), scalar_model)
        with pytest.raises(ValueError):
            sqrt_ricc(np.eye(2), scalar_model)

    def test_factorization_identity_random_spd(self):
        # Ricc(Q) = G Q + Q G^T + Sigma_B with G = sqrt-Riccati generator
        rng = np.random.default_rng(314)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            mdl = ModelParams(
                A=rng.standard_normal((d, d)),
                H=rng.standard_normal((d, d)),
                sigma_B=rng.standard_normal((d, d)),
                m0=np.zeros(d),
                Sigma0=np.eye(d),
            )
            B = rng.standard_normal((d, d))
            Q = B @ B.T + 0.1 * np.eye(d)
            G = sqrt_ricc(Q, mdl)
            lhs = ricc_rhs(Q, mdl)
            rhs = G @ Q + Q @ G.T + mdl.Sigma_B
            assert np.allclose(lhs, rhs, atol=1e-10 * max(1.0, np.abs(lhs).max()))

    def test_ricc_output_symmetric_for_symmetric_input(self, diag_model):
        rng = np.random.default_rng(7)
        for _ in range(20):
            B = rng.standard_normal((2, 2))
            Q = B + B.T
            out = ricc_rhs(Q, diag_model)
            assert np.allclose(out, out.T, atol=1e-12)


class TestIntegrateDre:
    def test_equilibrium_is_stationary(self, scalar_model, scalar_consts):
        grid = TimeGrid(T=5.0, dt=1e-3)
        path = integrate_dre(scalar_consts.sigma_inf, scalar_model, grid)
        drift = np.abs(path - scalar_consts.sigma_inf[None]).max()
        assert drift < 1e-10

    def test_scalar_converges_monotonically_to_root(self, scalar_model):
        grid = TimeGrid(T=10.0, dt=1e-3)
        path = integrate_dre(scalar_model.Sigma0, scalar_model, grid)[:, 0, 0]
        assert abs(path[-1] - SIGMA_INF_SCALAR) < 1e-6
        assert np.all(np.diff(path) <= 1e-15)  # decreasing from Sigma0 = 1

    def test_preserves_spd_random_starts(self, diag_model):
        rng = np.random.default_rng(21)
        grid = TimeGrid(T=2.0, dt=1e-2)
        for _ in range(5):
            B = rng.standard_normal((2, 2))
            S0 = B @ B.T + 0.05 * np.eye(2)
            path = integrate_dre(S0, diag_model, grid)
            for Q in path[:: grid.n_steps // 10]:
                assert np.allclose(Q, Q.T)
                assert np.linalg.eigvalsh(Q).min() >= -1e-10

    def test_oversized_step_refused(self, scalar_model):
        grid = TimeGrid(T=3.0, dt=1.0)
        with pytest.raises(CovarianceStepError, match="too large"):
            integrate_dre(np.array([[10.0]]), scalar_model, grid)

    @pytest.mark.parametrize("chunk", [4, 6, 7, 256])
    def test_chunked_check_refuses_at_the_step_of_a_per_step_check(self, chunk, monkeypatch):
        # step 7 is mid-chunk for 4, the first step of a chunk for 6, the
        # last for 7, and inside the first chunk by default
        monkeypatch.setattr(riccati, "_PSD_CHUNK", chunk)
        grid = TimeGrid(T=round(40 * 0.177, 9), dt=0.177)
        want = _dre_outcome(reference_integrate_dre, _LATE_LOSS, grid)
        assert want.startswith("CovarianceStepError: covariance lost PSD at step 7 ")
        assert _dre_outcome(integrate_dre, _LATE_LOSS, grid) == want

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        d=st.sampled_from([2, 3]),
        m=st.sampled_from([1, 2]),
        dt=st.sampled_from([1e-3, 1e-2, 5e-2, 0.1]),
        n_steps=st.integers(min_value=1, max_value=120),
        chunk=st.sampled_from([1, 2, 5, 16, 256]),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_check_equals_per_step_check(self, seed, d, m, dt, n_steps, chunk):
        rng = np.random.default_rng(seed)
        params = ModelParams(
            A=rng.standard_normal((d, d)), H=rng.standard_normal((m, d)) * rng.choice([1, 5, 20]),
            sigma_B=rng.standard_normal((d, d)), m0=np.zeros(d),
            Sigma0=np.eye(d) * rng.uniform(0.1, 30.0),
        )
        grid = TimeGrid(T=n_steps * dt, dt=dt)
        old = riccati._PSD_CHUNK
        riccati._PSD_CHUNK = chunk
        try:
            got = _dre_outcome(integrate_dre, params, grid)
        finally:
            riccati._PSD_CHUNK = old
        want = _dre_outcome(reference_integrate_dre, params, grid)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str) and np.array_equal(got, want)

    def test_overflow_after_the_bad_step_is_refused_not_warned(self):
        # RuntimeWarnings are errors under this suite: the steps after the
        # bad one overflow inside its chunk, and must stay silent
        params = ModelParams(A=[[-1.0, 0.0], [0.0, -1.0]], H=[[10.0, 0.0], [0.0, 10.0]],
                             sigma_B=np.eye(2), m0=[0.0, 0.0], Sigma0=[[1.0, 0.0], [0.0, 1.0]])
        grid = TimeGrid(T=2.0, dt=0.02)
        unchecked = np.empty((grid.n_steps + 1, 2, 2))
        unchecked[0] = params.Sigma0
        with np.errstate(over="ignore", invalid="ignore"):
            riccati._dre_steps(unchecked, 0, grid.n_steps, params.A, params.Sigma_B,
                               params.H.T @ params.H, grid.dt)
        assert not np.isfinite(unchecked[: riccati._PSD_CHUNK + 1]).all()
        want = _dre_outcome(reference_integrate_dre, params, grid)
        assert want.startswith("CovarianceStepError: covariance lost PSD at step 1 ")
        assert _dre_outcome(integrate_dre, params, grid) == want

    def test_overflow_without_a_bad_step_warns_as_numpy_does(self):
        # Q grows as exp(2000 t) and never loses PSD: the overflow is the
        # caller's floating-point business, as with a check after every step
        params = ModelParams(A=1000.0 * np.eye(2), H=np.zeros((1, 2)), sigma_B=np.eye(2),
                             m0=[0.0, 0.0], Sigma0=np.eye(2))
        grid = TimeGrid(T=1.0, dt=1e-3)
        with pytest.raises(RuntimeWarning, match="overflow"):
            integrate_dre(params.Sigma0, params, grid)
        with np.errstate(over="ignore", invalid="ignore"):
            got = integrate_dre(params.Sigma0, params, grid)
            want = reference_integrate_dre(params.Sigma0, params, grid)
        assert np.array_equal(got, want, equal_nan=True)
        assert not np.isfinite(got[-1]).all()

    def test_envelope_from_fitted_constant(self, scalar_model, scalar_consts):
        # ||Sigma_t - Sigma_inf|| <= m1_hat exp(-2 lambda_fit t) on the fit grid
        grid = TimeGrid(T=scalar_consts.fit_T, dt=scalar_consts.fit_dt)
        path = integrate_dre(scalar_model.Sigma0, scalar_model, grid)
        gaps = np.abs(path[:, 0, 0] - scalar_consts.sigma_inf[0, 0])
        env = scalar_consts.m1_hat * np.exp(-2 * scalar_consts.lambda_fit * grid.times())
        assert np.all(gaps <= env * (1.0 + 1e-12) + 1e-300)


class TestSolveAre:
    def test_scalar_closed_form(self, scalar_consts):
        assert abs(scalar_consts.sigma_inf[0, 0] - SIGMA_INF_SCALAR) <= 1e-15
        assert scalar_consts.f_inf[0, 0] == pytest.approx(-SQRT2, abs=1e-10)
        assert scalar_consts.lambda0 == pytest.approx(SQRT2, abs=1e-10)
        assert scalar_consts.beta == pytest.approx(BETA_SCALAR, abs=1e-10)
        assert scalar_consts.are_residual <= 1e-8 * (1 + SIGMA_INF_SCALAR)

    @pytest.mark.parametrize(
        "A, H",
        [
            ([[-2.0, 1.0], [1.0, 0.0]], [[-2.0, 1.0]]),  # lambda0 ~ 0.43
            ([[2.0, 1.0], [3.0, -1.0]], [[-1.0, 1.0]]),  # unstable A
        ],
    )
    def test_coupled_models_with_one_observation(self, A, H):
        m = ModelParams(
            A=np.array(A), H=np.array(H), sigma_B=np.eye(2), m0=np.zeros(2), Sigma0=np.eye(2)
        )
        consts = solve_are(m)
        assert np.linalg.eigvalsh(consts.sigma_inf).min() > 0.0
        assert np.linalg.eigvals(consts.f_inf).real.max() < 0.0
        residual = float(np.linalg.norm(ricc_rhs(consts.sigma_inf, m), "fro"))
        assert residual == consts.are_residual
        assert residual <= 1e-8 * (1.0 + np.linalg.norm(consts.sigma_inf, "fro"))
        assert consts.alpha == math.inf  # exponents ~4e6 and ~9e7: a vacuous envelope

    @pytest.mark.parametrize(
        "solver, match",
        [
            (lambda *a: np.eye(1), "residual"),
            (lambda *a: np.full((1, 1), -1.0 - SQRT2), "not positive definite"),
            (lambda *a: np.linalg.inv(np.zeros((1, 1))), "ARE solve failed"),
        ],
    )
    def test_failed_solve_or_check_raises(self, scalar_model, monkeypatch, solver, match):
        monkeypatch.setattr(riccati, "solve_continuous_are", solver)
        with pytest.raises(AreConvergenceError, match=match):
            solve_are(scalar_model)

    def test_scalar_alpha_formula(self, scalar_consts):
        # alpha = exp(m1_hat * ||H^T H|| / (2 beta)) for cond(Sigma_inf) = 1
        expected = math.exp(scalar_consts.m1_hat / (2.0 * scalar_consts.beta))
        assert scalar_consts.alpha == pytest.approx(expected, rel=1e-12)
        assert scalar_consts.lambda_fit == pytest.approx(0.9 * scalar_consts.lambda0)

    def test_diagonal_model_decouples(self, diag_model):
        consts = solve_are(diag_model)
        assert consts.sigma_inf[0, 0] == pytest.approx(SQRT2 - 1.0, abs=1e-9)
        assert consts.sigma_inf[1, 1] == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-9)
        assert abs(consts.sigma_inf[0, 1]) < 1e-9

    def test_no_observation_reduces_to_lyapunov(self):
        m = ModelParams(
            A=np.diag([-1.0, -2.0]),
            H=np.zeros((2, 2)),
            sigma_B=np.eye(2),
            m0=np.zeros(2),
            Sigma0=np.eye(2),
        )
        consts = solve_are(m)
        assert np.allclose(consts.sigma_inf, np.diag([0.5, 0.25]), atol=1e-9)

    def test_refuses_undetectable_pair(self):
        m = ModelParams.scalar(a=1.0, h=0.0, sigma_b=1.0, m0=0.0, sigma0=1.0)
        with pytest.raises(AssumptionError, match="A1"):
            solve_are(m)

    def test_constants_report_roundtrips_edges(self, scalar_consts):
        text = scalar_consts.to_text()
        assert "sigma_inf" in text and "are_residual" in text
        assert repr(scalar_consts.beta) in text


class TestExplicitSolution:
    def test_consistent_at_time_zero(self, scalar_model, scalar_consts):
        out = explicit_dre_solution(scalar_model.Sigma0, scalar_consts, scalar_model, 0.0)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_long_time_reaches_steady_state(self, scalar_model, scalar_consts):
        out = explicit_dre_solution(scalar_model.Sigma0, scalar_consts, scalar_model, 25.0)
        assert out[0, 0] == pytest.approx(SIGMA_INF_SCALAR, abs=1e-10)

    def test_matches_rk4_reference(self, scalar_model, scalar_consts):
        grid = TimeGrid(T=2.0, dt=1e-4)
        path = integrate_dre(scalar_model.Sigma0, scalar_model, grid)
        for t in (0.5, 1.0, 2.0):
            k = grid.index_of(t)
            closed = explicit_dre_solution(scalar_model.Sigma0, scalar_consts, scalar_model, t)
            rel = abs(closed[0, 0] - path[k, 0, 0]) / path[k, 0, 0]
            assert rel < 1e-6

    def test_equilibrium_shortcut(self, scalar_model, scalar_consts):
        out = explicit_dre_solution(scalar_consts.sigma_inf, scalar_consts, scalar_model, 3.0)
        assert np.array_equal(out, scalar_consts.sigma_inf)

    def test_degenerate_offset_refused(self, diag_model):
        consts = solve_are(diag_model)
        bad = consts.sigma_inf + np.diag([1.0, 0.0])
        with pytest.raises(DegenerateInitialCovariance):
            explicit_dre_solution(bad, consts, diag_model, 1.0)


class TestTransitionFlows:
    def test_identity_at_equal_times(self, scalar_model, scalar_consts):
        grid = TimeGrid(T=1.0, dt=1e-2)
        path = integrate_dre(scalar_model.Sigma0, scalar_model, grid)
        assert transition_phi(0.5, 0.5, path, scalar_model, grid)[0, 0] == 1.0
        assert transition_psi(0.5, 0.5, path, scalar_model, grid)[0, 0] == 1.0

    def test_constant_coefficient_matches_expm(self, scalar_model, scalar_consts):
        grid = TimeGrid(T=2.0, dt=1e-3)
        const_path = np.repeat(scalar_consts.sigma_inf[None], grid.n_steps + 1, axis=0)
        phi = transition_phi(0.0, 2.0, const_path, scalar_model, grid)
        assert phi[0, 0] == pytest.approx(expm(scalar_consts.f_inf * 2.0)[0, 0], rel=1e-10)

    def test_psi_without_observation_is_drift_flow(self):
        m = ModelParams(
            A=[[-1.0, 0.3], [0.0, -2.0]],
            H=np.zeros((2, 2)),
            sigma_B=np.eye(2),
            m0=np.zeros(2),
            Sigma0=np.eye(2),
        )
        grid = TimeGrid(T=1.0, dt=1e-3)
        path = integrate_dre(m.Sigma0, m, grid)
        psi = transition_psi(0.0, 1.0, path, m, grid)
        assert np.allclose(psi, expm(m.A), atol=1e-9)

    def test_semigroup_on_grid_nodes(self, scalar_model, diag_model):
        for mdl in (scalar_model, diag_model):
            grid = TimeGrid(T=2.0, dt=1e-2)
            path = integrate_dre(mdl.Sigma0, mdl, grid)
            full = transition_phi(0.0, 2.0, path, mdl, grid)
            split = transition_phi(0.7, 2.0, path, mdl, grid) @ transition_phi(0.0, 0.7, path, mdl, grid)
            assert np.allclose(full, split, atol=1e-13)
            fullp = transition_psi(0.0, 2.0, path, mdl, grid)
            splitp = transition_psi(0.7, 2.0, path, mdl, grid) @ transition_psi(0.0, 0.7, path, mdl, grid)
            assert np.allclose(fullp, splitp, atol=1e-13)

    def test_segments_agree_with_single_calls(self, scalar_model, diag_model):
        grid = TimeGrid(T=1.0, dt=1e-2)
        nodes = [0.2, 0.2, 0.5, 1.0]
        idx = [grid.index_of(t) for t in nodes]
        for mdl in (scalar_model, diag_model):
            path = integrate_dre(mdl.Sigma0, mdl, grid)
            for c, single in ((0.5, transition_psi), (1.0, transition_phi)):
                segs = transition_segments(c, idx, path, mdl, grid)
                assert len(segs) == 3
                assert np.array_equal(segs[0], np.eye(mdl.d))
                for s, t, M in zip(nodes, nodes[1:], segs):
                    assert np.array_equal(M, single(s, t, path, mdl, grid))

    def test_segments_refuse_bad_indices(self, scalar_model):
        grid = TimeGrid(T=1.0, dt=1e-2)
        path = integrate_dre(scalar_model.Sigma0, scalar_model, grid)
        for bad in ([0, 50, 40], [-1, 10]):
            with pytest.raises(ValueError, match="non-decreasing"):
                transition_segments(0.5, bad, path, scalar_model, grid)
        with pytest.raises(PathCoverageError, match="grid index 100"):
            transition_segments(0.5, [0, 20, 100], path[:50], scalar_model, grid)

    def test_psi_envelope_decay_bound(self, scalar_model, scalar_consts):
        # ||Psi_{t,s}|| <= alpha exp(-beta (t-s)) with Q_t the DRE solution
        grid = TimeGrid(T=5.0, dt=1e-3)
        path = integrate_dre(scalar_model.Sigma0, scalar_model, grid)
        s_nodes = np.round(np.linspace(0.0, 4.0, 10), 3)
        for s in s_nodes:
            ts = [round(float(t), 3) for t in np.linspace(s, 5.0, 10)]
            idx = [grid.index_of(float(s))] + [grid.index_of(t) for t in ts]
            M = np.eye(1)
            for k, P in zip(idx[1:], transition_segments(0.5, idx, path, scalar_model, grid)):
                M = P @ M  # Psi_{t,s} composed from segments on grid nodes
                t = grid.t0 + k * grid.dt
                bound = scalar_consts.alpha * math.exp(-scalar_consts.beta * (t - s))
                assert spectral_norm(M) <= bound

    def test_phi_decay_from_above_equilibrium(self, scalar_model):
        # Sigma_t >= Sigma_inf along the path from Sigma0 = 1, so
        # |Phi_{t,s}| <= exp(-lambda0 (t-s)) pointwise
        grid = TimeGrid(T=10.0, dt=1e-3)
        path = integrate_dre(scalar_model.Sigma0, scalar_model, grid)
        phi = transition_phi(0.0, 10.0, path, scalar_model, grid)
        assert abs(phi[0, 0]) <= math.exp(-SQRT2 * 10.0)

    def test_phi_envelope_fit_over_grid(self, scalar_model, scalar_consts):
        grid = TimeGrid(T=5.0, dt=1e-3)
        path = integrate_dre(scalar_model.Sigma0, scalar_model, grid)
        lam = 0.9 * scalar_consts.lambda0
        norms, gaps = [], []
        for s in (1.0, 2.0, 3.0):
            for t in (3.5, 4.0, 5.0):
                norms.append(spectral_norm(transition_phi(s, t, path, scalar_model, grid)))
                gaps.append(t - s)
        kappa = fit_envelope_constant(norms, gaps, lam)
        assert 0.0 < kappa < 10.0
        for n, g in zip(norms, gaps):
            assert n <= kappa * math.exp(-lam * g) * (1 + 1e-12)

    def test_path_coverage_gap_rejected(self, scalar_model):
        grid = TimeGrid(T=1.0, dt=1e-2)
        path = integrate_dre(scalar_model.Sigma0, scalar_model, grid)
        with pytest.raises(PathCoverageError):
            transition_phi(0.0, 1.0, path[:50], scalar_model, grid)
        with pytest.raises(ValueError):
            transition_phi(0.8, 0.2, path, scalar_model, grid)
