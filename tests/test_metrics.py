import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkbf_lab.linmodel import ModelParams
from enkbf_lab.metrics import (
    CurvePoint,
    InsufficientTrialsError,
    TrialRow,
    double_factorial,
    folded_normal_mean,
    gaussian_w2,
    mse_curve,
    rate_fit,
    theoretical_bounds,
)
from enkbf_lab.riccati import StabilityConstants


def make_consts(alpha, beta=1.0, sigma_inf=0.5):
    return StabilityConstants(
        sigma_inf=np.array([[sigma_inf]]),
        f_inf=np.array([[-1.0]]),
        lambda0=1.0,
        beta=beta,
        alpha=alpha,
        m1_hat=0.0,
        are_residual=0.0,
        lambda_fit=0.9,
        fit_T=5.0,
        fit_dt=1e-3,
    )


class TestDoubleFactorial:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (2, 2), (5, 15), (6, 48), (9, 945)])
    def test_known_values(self, n, expected):
        assert double_factorial(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            double_factorial(-1)

    @given(n=st.integers(min_value=2, max_value=40))
    def test_recurrence(self, n):
        assert double_factorial(n) == n * double_factorial(n - 2)


class TestTheoreticalBounds:
    def test_unit_alpha_unit_prior(self):
        # C1 = 2 a^4 Sigma0^2 [(2p-1)!!]^{1/p} = 2 for p=1, alpha=1, Sigma0=1
        m = ModelParams.scalar(-1.0, 1.0, 1.0, 0.0, 1.0)
        tb = theoretical_bounds(m, make_consts(alpha=1.0), p=1)
        assert tb.C1 == pytest.approx(2.0)
        assert tb.mu_A == pytest.approx(1.0)

    def test_zero_prior_kills_c1(self):
        m = ModelParams.scalar(-1.0, 1.0, 1.0, 0.0, 0.0)
        for p in (1, 2, 3):
            assert theoretical_bounds(m, make_consts(alpha=2.0), p=p).C1 == 0.0

    def test_formulas_reproduce_hand_computation(self):
        # p=2, alpha=2, Sigma0=1, Sigma_inf=0.5, H=1, Sigma_B=1, mu=1
        m = ModelParams.scalar(-1.0, 1.0, 1.0, 0.0, 1.0)
        tb = theoretical_bounds(m, make_consts(alpha=2.0), p=2)
        assert tb.C1 == pytest.approx(2.0 * 16.0 * 1.0 * math.sqrt(3.0))
        assert tb.C2 == pytest.approx(4.0 * 3.0 * 16.0 * 0.5 * 1.5)
        assert tb.C3 == pytest.approx(((tb.C1 + tb.C2) * 1.0 + 1.0) / 2.0)
        assert tb.C4 == pytest.approx(
            2.0 * tb.C3 + 4.0 + math.sqrt(3.0) * 1.5 * (tb.C1 + tb.C2) + 2.0
        )

    def test_monotone_in_prior_variance(self):
        consts = make_consts(alpha=1.3)
        prev = None
        for s0 in (0.1, 0.5, 1.0, 2.0, 4.0):
            m = ModelParams.scalar(-1.0, 1.0, 1.0, 0.0, s0)
            tb = theoretical_bounds(m, consts, p=1)
            if prev is not None:
                assert tb.C1 > prev.C1
                assert tb.C3 > prev.C3
                assert tb.C4 > prev.C4
            prev = tb

    def test_scalar_only(self, diag_model):
        with pytest.raises(ValueError, match="scalar"):
            theoretical_bounds(diag_model, make_consts(1.0), p=1)

    def test_unstable_drift_rejected(self):
        m = ModelParams.scalar(0.0, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="mu"):
            theoretical_bounds(m, make_consts(1.0), p=1)

    def test_cov_bound_shape(self):
        m = ModelParams.scalar(-1.0, 1.0, 1.0, 0.0, 1.0)
        tb = theoretical_bounds(m, make_consts(1.5, beta=1.2), p=1)
        assert tb.cov_bound(0.0, 100) == pytest.approx((tb.C1 + tb.C2) / 100)
        assert tb.cov_bound(50.0, 100) == pytest.approx(tb.C2 / 100, rel=1e-12)


class TestGaussianW2:
    def test_identical_gaussians(self):
        assert gaussian_w2([1.0], [[2.0]], [1.0], [[2.0]]) == 0.0

    def test_pure_mean_shift(self):
        assert gaussian_w2([1.0], [[1.0]], [0.0], [[1.0]]) == pytest.approx(1.0)

    def test_pure_scale_change(self):
        # scalar closed form (sqrt(S1) - sqrt(S2))^2 -> |2 - 1| = 1
        assert gaussian_w2([0.0], [[4.0]], [0.0], [[1.0]]) == pytest.approx(1.0)

    def test_symmetry(self):
        a = gaussian_w2([1.0, 0.0], np.diag([2.0, 1.0]), [0.0, 1.0], np.diag([1.0, 3.0]))
        b = gaussian_w2([0.0, 1.0], np.diag([1.0, 3.0]), [1.0, 0.0], np.diag([2.0, 1.0]))
        assert a == pytest.approx(b, rel=1e-12)

    def test_diagonal_case_decouples(self):
        # for commuting covariances W2^2 splits per coordinate
        d1, d2 = np.diag([4.0, 9.0]), np.diag([1.0, 1.0])
        w = gaussian_w2([0.0, 0.0], d1, [0.0, 0.0], d2)
        expected = math.sqrt((2.0 - 1.0) ** 2 + (3.0 - 1.0) ** 2)
        assert w == pytest.approx(expected, rel=1e-12)

    def test_triangle_inequality_scalar(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            m = rng.standard_normal(3) * 3.0
            s = rng.random(3) * 4.0 + 0.01
            w_ab = gaussian_w2([m[0]], [[s[0]]], [m[1]], [[s[1]]])
            w_bc = gaussian_w2([m[1]], [[s[1]]], [m[2]], [[s[2]]])
            w_ac = gaussian_w2([m[0]], [[s[0]]], [m[2]], [[s[2]]])
            assert w_ac <= w_ab + w_bc + 1e-12

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            gaussian_w2([0.0], [[-1.0]], [0.0], [[1.0]])

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError, match="mismatch"):
            gaussian_w2([0.0], [[1.0]], [0.0, 0.0], np.eye(2))

    def test_tiny_negative_roundoff_tolerated(self):
        S = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
        assert gaussian_w2([0.0, 0.0], S, [0.0, 0.0], S) < 1e-6


class TestFoldedNormal:
    @pytest.mark.parametrize("mu,var", [(0.0, 1.0), (1.0, 0.5), (-2.0, 3.0), (4.0, 0.1)])
    def test_matches_quadrature(self, mu, var):
        sigma = math.sqrt(var)
        xs = np.linspace(mu - 12 * sigma, mu + 12 * sigma, 400_001)
        pdf = np.exp(-0.5 * ((xs - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        dx = xs[1] - xs[0]
        brute = float(np.sum(np.abs(xs) * pdf) * dx)
        assert folded_normal_mean(mu, var) == pytest.approx(brute, abs=1e-8)

    def test_degenerate_variance(self):
        assert folded_normal_mean(-3.0, 0.0) == 3.0


def synthetic_rows(c=4.0, Ns=(100, 200, 400), trials=40, t=1.0, quantity="coupling_err"):
    return [
        TrialRow(N=N, trial=i, t=t, quantity=quantity, value=c / N)
        for N in Ns
        for i in range(trials)
    ]


class TestMseCurve:
    def test_synthetic_pass_through(self):
        curve = mse_curve(synthetic_rows(), "particle_coupling", t=1.0)
        for pt, N in zip(curve, (100, 200, 400)):
            assert pt.N == N
            assert pt.estimate == pytest.approx(4.0 / N)
            assert pt.stderr == 0.0
            assert pt.stderr_low <= 4.0 / N <= pt.stderr_high

    def test_zero_records_give_zero_curve(self):
        rows = [TrialRow(N, i, 1.0, "mean_err", 0.0) for N in (50, 100) for i in range(30)]
        curve = mse_curve(rows, "mean_err", t=1.0)
        assert all(pt.estimate == 0.0 for pt in curve)

    def test_moment_2p_aggregation(self):
        rows = [TrialRow(N, i, 2.0, "cov_err", 2.0) for N in (50, 100) for i in range(30)]
        curve = mse_curve(rows, "cov_err_2p", t=2.0, p=2)
        # E[v^4]^{1/2} = (2^4)^{1/2} = 4
        assert all(pt.estimate == pytest.approx(4.0) for pt in curve)

    def test_bootstrap_interval_contains_truth_for_iid_noise(self):
        rng = np.random.default_rng(31)
        rows = []
        for N in (100, 400):
            vals = 1.0 / N * (1.0 + 0.1 * rng.standard_normal(500))
            rows += [TrialRow(N, i, 1.0, "coupling_err", float(v)) for i, v in enumerate(vals)]
        curve = mse_curve(rows, "particle_coupling", t=1.0)
        for pt, N in zip(curve, (100, 400)):
            assert pt.stderr_low - 2 * pt.stderr <= 1.0 / N <= pt.stderr_high + 2 * pt.stderr

    def test_bootstrap_is_deterministic(self):
        rng = np.random.default_rng(32)
        rows = [
            TrialRow(N, i, 1.0, "mean_err", float(abs(rng.standard_normal())) / N)
            for N in (50, 100) for i in range(40)
        ]
        c1 = mse_curve(rows, "mean_err", t=1.0)
        c2 = mse_curve(rows, "mean_err", t=1.0)
        assert c1 == c2

    def test_requires_one_N(self):
        # rows of another quantity and another time select nothing
        rows = [TrialRow(100, i, 1.0, "coupling_err", 0.1) for i in range(50)]
        for quantity, t in (("mean_err", 1.0), ("particle_coupling", 2.0)):
            with pytest.raises(InsufficientTrialsError, match="at least one N"):
                mse_curve(rows, quantity, t=t)

    def test_requires_min_trials(self):
        rows = [TrialRow(N, i, 1.0, "coupling_err", 0.1) for N in (50, 100) for i in range(10)]
        with pytest.raises(InsufficientTrialsError, match="trials"):
            mse_curve(rows, "particle_coupling", t=1.0)

    def test_unknown_quantity(self):
        with pytest.raises(ValueError, match="quantity"):
            mse_curve([], "nope", t=1.0)


class TestRateFit:
    def test_exact_inverse_law(self):
        fit = rate_fit([(100, 1.0 / 100), (200, 1.0 / 200), (400, 1.0 / 400)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_curve(self):
        fit = rate_fit([(100, 0.5), (200, 0.5), (400, 0.5)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_inverse_sqrt_law(self):
        fit = rate_fit([(N, N ** -0.5) for N in (100, 200, 400, 800)])
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)

    def test_accepts_curve_points(self):
        pts = [CurvePoint(N, 2.0 / N, 0.0, 2.0 / N, 2.0 / N) for N in (10, 20, 40)]
        assert rate_fit(pts).slope == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="3 points"):
            rate_fit([(10, 1.0), (20, 0.5)])

    def test_nonpositive_errors_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            rate_fit([(10, 1.0), (20, 0.0), (40, 0.2)])

    @given(
        slope=st.floats(min_value=-2.0, max_value=-0.1),
        c=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_recovers_any_power_law(self, slope, c):
        pts = [(N, c * N**slope) for N in (50, 100, 200, 400)]
        fit = rate_fit(pts)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(c), abs=1e-7)
        assert fit.r_squared == pytest.approx(1.0)
