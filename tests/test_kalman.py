import math

import numpy as np
import pytest

from enkbf_lab.kalman import FilterState, kb_filter
from enkbf_lab.linmodel import (
    ModelParams,
    NoiseBundle,
    TimeGrid,
    simulate_observations,
    simulate_truth,
)
from enkbf_lab.riccati import integrate_dre

SIGMA_INF_SCALAR = math.sqrt(2.0) - 1.0


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(T=2.0, dt=1e-3)


def _run_filter(model, grid, seed, cov_path=None, init=None):
    b = NoiseBundle(seed, (0,))
    truth = simulate_truth(model, grid, b.child(0))
    obs = simulate_observations(model, grid, truth, b.child(1))
    return truth, obs, kb_filter(model, grid, obs, init=init, cov_path=cov_path)


def test_covariance_path_is_bitwise_dre(scalar_model, grid):
    _, _, fp = _run_filter(scalar_model, grid, seed=1)
    dre = integrate_dre(scalar_model.Sigma0, scalar_model, grid)
    assert np.array_equal(fp.covs, dre)


def test_covariance_path_bitwise_vector(diag_model):
    grid = TimeGrid(T=0.5, dt=1e-3)
    _, _, fp = _run_filter(diag_model, grid, seed=2)
    assert np.array_equal(fp.covs, integrate_dre(diag_model.Sigma0, diag_model, grid))


def test_no_observation_mean_follows_drift():
    m = ModelParams.scalar(a=-1.0, h=0.0, sigma_b=1.0, m0=2.0, sigma0=1.0)
    g = TimeGrid(T=1.0, dt=1e-2)
    _, obs, fp = _run_filter(m, g, seed=3)
    expected = 2.0 * (1.0 - g.dt) ** np.arange(g.n_steps + 1)
    assert np.allclose(fp.means[:, 0], expected, rtol=1e-12)
    # with H = 0 the DRE is the Lyapunov flow; closed form for a=-1, s=1:
    # Sigma_t -> 1/2
    lyap = integrate_dre(m.Sigma0, m, g)
    assert np.array_equal(fp.covs, lyap)
    assert fp.covs[-1, 0, 0] == pytest.approx(0.5 + 0.5 * math.exp(-2.0), rel=1e-6)


def test_zero_innovation_record_leaves_drift_only(scalar_model):
    g = TimeGrid(T=0.5, dt=1e-2)
    # build the record so that dZ_k = H m_k dt for the filter's own mean path
    m_drift = np.empty(g.n_steps + 1)
    m_drift[0] = 0.7
    for k in range(g.n_steps):
        m_drift[k + 1] = m_drift[k] * (1.0 - g.dt)
    obs = (m_drift[:-1] * g.dt)[:, None]
    fp = kb_filter(scalar_model, g, obs, init=FilterState(0.0, [0.7], [[1.0]]))
    assert np.allclose(fp.means[:, 0], m_drift, atol=1e-13)


def test_stationary_error_variance_matches_are(scalar_model, grid):
    # time-averaged squared filter error over the stationary window
    # approaches Sigma_inf
    g = TimeGrid(T=5.0, dt=1e-3)
    cov_path = integrate_dre(scalar_model.Sigma0, scalar_model, g)
    lo = g.index_of(3.0)
    vals = []
    for seed in range(400):
        b = NoiseBundle(606, (seed,))
        truth = simulate_truth(scalar_model, g, b.child(0))
        obs = simulate_observations(scalar_model, g, truth, b.child(1))
        fp = kb_filter(scalar_model, g, obs, cov_path=cov_path)
        err = fp.means[lo:, 0] - truth[lo:, 0]
        vals.append(np.mean(err**2))
    assert np.mean(vals) == pytest.approx(SIGMA_INF_SCALAR, rel=0.10)


def test_two_initializations_forget_each_other(scalar_model, scalar_consts):
    # covariance gap decays at rate 2 lambda0 and the mean-gap mean square
    # decays at a fitted rate of at least 1.8 * lambda_fit
    g = TimeGrid(T=3.0, dt=1e-3)
    cov_a = integrate_dre(scalar_model.Sigma0, scalar_model, g)
    cov_b = integrate_dre(np.array([[3.0]]), scalar_model, g)
    gap0 = abs(cov_b[0, 0, 0] - cov_a[0, 0, 0])
    k3 = g.index_of(3.0)
    assert abs(cov_b[k3, 0, 0] - cov_a[k3, 0, 0]) <= gap0 * math.exp(
        -2 * scalar_consts.lambda_fit * 3.0
    )

    sample_idx = [g.index_of(round(t, 3)) for t in np.arange(0.25, 2.51, 0.125)]
    acc = np.zeros(len(sample_idx))
    n_seeds = 50
    for seed in range(n_seeds):
        b = NoiseBundle(909, (seed,))
        truth = simulate_truth(scalar_model, g, b.child(0))
        obs = simulate_observations(scalar_model, g, truth, b.child(1))
        fp_a = kb_filter(scalar_model, g, obs, cov_path=cov_a)
        fp_b = kb_filter(
            scalar_model, g, obs,
            init=FilterState(0.0, [5.0], [[3.0]]), cov_path=cov_b,
        )
        gaps = fp_b.means[sample_idx, 0] - fp_a.means[sample_idx, 0]
        acc += gaps**2
    acc /= n_seeds
    ts = np.array([g.times()[k] for k in sample_idx])
    slope = np.polyfit(ts, np.log(acc), 1)[0]
    assert -slope >= 1.8 * scalar_consts.lambda_fit


def test_rejects_bad_inputs(scalar_model, grid):
    with pytest.raises(ValueError, match="observation record"):
        kb_filter(scalar_model, grid, np.zeros((10, 1)))
    with pytest.raises(ValueError, match="observation record"):
        kb_filter(scalar_model, grid, np.zeros(grid.n_steps))
    bad_init = FilterState(0.0, [0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError, match="dimension"):
        kb_filter(scalar_model, grid,
                  np.zeros((grid.n_steps, 1)), init=bad_init)

