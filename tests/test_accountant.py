"""Privacy accounting: RDP curve, composition, conversion, ledger."""

import math
import warnings

import numpy as np
import pytest

from flog.accountant import (
    DEFAULT_ALPHA_GRID,
    PrivacyLedger,
    epsilon_for,
    rdp_gaussian,
    to_epsilon,
)

# Dense brute-force minimization over alpha in (1, 1e4], step 1e-3, for
# sigma=1.5, T=20, delta=1e-5; frozen before the accountant was written.
GOLDEN_EPS_SIGMA15_T20 = 18.750885241677512


def dense_epsilon(sigma, rounds, delta):
    alphas = np.arange(1.001, 10_000.0005, 0.001)
    eps = rounds * alphas / (2 * sigma**2) + np.log(1 / delta) / (alphas - 1)
    return float(eps.min())


def loop_epsilon(sigma, rounds, delta, alphas=DEFAULT_ALPHA_GRID):
    """The scalar loop that to_epsilon replaced: the first strict minimum."""
    log_inv_delta = math.log(1.0 / delta)
    best_eps, best_alpha = math.inf, float(alphas[0])
    for alpha in alphas:
        rho = rounds * (math.inf if sigma == 0.0 else alpha / (2.0 * sigma * sigma))
        eps = rho + log_inv_delta / (alpha - 1.0)
        if eps < best_eps:
            best_eps, best_alpha = eps, float(alpha)
    return best_eps, best_alpha


class TestRdpGaussian:
    def test_closed_form(self):
        assert rdp_gaussian(2.0, 3.0) == pytest.approx(3.0 / 8.0)

    def test_zero_sigma_infinite(self):
        assert rdp_gaussian(0.0, 2.0) == math.inf

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            rdp_gaussian(1.0, 1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            rdp_gaussian(-1.0, 2.0)


class TestCompose:
    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            epsilon_for(1.0, -1, 1e-5)


def gdp_delta(eps, mu):
    """Exact delta(eps) of mu-GDP (Balle & Wang, ICML 2018).

    delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2).
    """
    def phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    return phi(-eps / mu + mu / 2) - math.exp(eps) * phi(-eps / mu - mu / 2)


def exact_epsilon(sigma, rounds, delta):
    """The least eps with gdp_delta(eps) <= delta for T full-batch Gaussian releases.

    At q = 1, T releases at multiplier sigma compose exactly to mu-GDP with
    mu = sqrt(T) / sigma (Dong, Roth & Su, JRSS-B 2022). delta(eps) falls
    as eps grows, so bisection finds it; eps stays under 700, where
    math.exp would overflow.
    """
    mu = math.sqrt(rounds) / sigma
    lo, hi = 0.0, 600.0
    assert gdp_delta(hi, mu) <= delta
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if gdp_delta(mid, mu) > delta else (lo, mid)
    return hi


# The worst ratio epsilon_for / exact over the grid below, measured when the
# oracle was added (sigma=2.5, T=1: 1.9994 against 1.5550), and the slack
# allowed above it before the accountant counts as needlessly loose.
WORST_RDP_OVER_EXACT = 1.286
RATIO_MARGIN = 0.03


class TestExactGaussianOracle:
    def test_oracle_matches_a_worked_value(self):
        # sigma=1, T=5: mu = sqrt(5), exact eps 11.48 at delta=1e-5.
        assert exact_epsilon(1.0, 5, 1e-5) == pytest.approx(11.48, abs=5e-3)
        assert gdp_delta(exact_epsilon(1.0, 5, 1e-5), math.sqrt(5)) == pytest.approx(1e-5)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5, 2.0, 2.5])
    @pytest.mark.parametrize("rounds", [1, 5, 10, 20])
    def test_rdp_epsilon_bounds_the_exact_one_within_slack(self, sigma, rounds):
        exact = exact_epsilon(sigma, rounds, 1e-5)
        eps = epsilon_for(sigma, rounds, 1e-5)[0]
        assert eps >= exact
        assert eps <= exact * (WORST_RDP_OVER_EXACT + RATIO_MARGIN)


class TestToEpsilon:
    def test_golden_value(self):
        eps, alpha = epsilon_for(1.5, 20, 1e-5)
        assert eps == pytest.approx(GOLDEN_EPS_SIGMA15_T20, rel=0.02)
        assert alpha > 1.0

    def test_matches_dense_oracle_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            sigma = float(rng.uniform(0.5, 5.0))
            rounds = int(rng.integers(1, 101))
            delta = float(10 ** rng.uniform(-7, -3))
            eps, _ = epsilon_for(sigma, rounds, delta)
            want = dense_epsilon(sigma, rounds, delta)
            assert eps >= want - 1e-9  # grid minimum cannot beat the dense one
            assert eps == pytest.approx(want, rel=0.02)

    def test_monotone_in_sigma_and_rounds(self):
        sigmas = np.linspace(0.5, 4.0, 5)
        rounds = [1, 5, 20, 50, 100]
        deltas = [1e-7, 1e-5, 1e-3]
        for delta in deltas:
            for T in rounds:
                eps = [epsilon_for(s, T, delta)[0] for s in sigmas]
                assert all(a >= b - 1e-12 for a, b in zip(eps, eps[1:]))
            for s in sigmas:
                eps = [epsilon_for(s, T, delta)[0] for T in rounds]
                assert all(a <= b + 1e-12 for a, b in zip(eps, eps[1:]))

    def test_equals_scalar_loop(self):
        for sigma in (0.0, 0.01, 0.3, 1.5, 7.0, 1e3):
            for rounds in (0, 1, 5, 100, 10**6):
                for delta in (1e-12, 1e-5, 0.5):
                    assert epsilon_for(sigma, rounds, delta) == loop_epsilon(
                        sigma, rounds, delta
                    ), (sigma, rounds, delta)
        # No order gives a finite epsilon: the loop's untouched start value.
        assert epsilon_for(0.0, 0, 1e-5) == (math.inf, 1.25)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            to_epsilon(DEFAULT_ALPHA_GRID, 0.0)
        with pytest.raises(ValueError):
            to_epsilon(DEFAULT_ALPHA_GRID, 1.0)

    def test_grid_spans_low_and_high_alpha(self):
        assert DEFAULT_ALPHA_GRID[0] == pytest.approx(1.25)
        assert DEFAULT_ALPHA_GRID[-1] == pytest.approx(512.0)


class TestLedger:
    def test_linear_budget_exact(self):
        # target 10, T=10: after round k the linear ledger reads exactly k.
        import warnings as _w

        ledger = PrivacyLedger(
            target_epsilon=10.0, delta=1e-5, noise_multiplier=1.0, total_rounds=10
        )
        with _w.catch_warnings():
            _w.simplefilter("ignore")  # late rounds overspend the RDP budget
            for k in range(1, 11):
                ledger.update()
                assert ledger.eps_spent_linear == k * 1.0

    def test_rdp_accumulates(self):
        ledger = PrivacyLedger(
            target_epsilon=100.0, delta=1e-5, noise_multiplier=1.5, total_rounds=20
        )
        seen = []
        for _ in range(20):
            ledger.update()
            seen.append(ledger.eps_spent_rdp)
        assert all(a <= b + 1e-12 for a, b in zip(seen, seen[1:]))
        assert seen[-1] == pytest.approx(GOLDEN_EPS_SIGMA15_T20, rel=0.02)

    def test_overspend_warns(self):
        ledger = PrivacyLedger(
            target_epsilon=1.0, delta=1e-5, noise_multiplier=0.5, total_rounds=5
        )
        with pytest.warns(UserWarning):
            ledger.update()

    def test_zero_sigma_warns_and_reports_inf(self):
        with pytest.warns(UserWarning):
            ledger = PrivacyLedger(
                target_epsilon=10.0, delta=1e-5, noise_multiplier=0.0, total_rounds=5
            )
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore")
            ledger.update()
        assert ledger.eps_spent_rdp == math.inf

    def test_rounds_compose_by_multiplicity(self):
        # The ledger records T rounds as T * rho. A running sum of rho rounds
        # differently: at sigma 0.33, T 50 it gives 333.01221609312245.
        for sigma in (0.1, 0.01, 1.5, 0.7, 1.27, 2.5, 0.33):
            ledger = PrivacyLedger(
                target_epsilon=math.inf, delta=1e-5, noise_multiplier=sigma, total_rounds=50
            )
            for rounds in range(1, 51):
                ledger.update()
                want = epsilon_for(sigma, rounds, 1e-5)
                assert (ledger.eps_spent_rdp, ledger.alpha_star) == want, (sigma, rounds)
        assert ledger.eps_spent_rdp == 333.0122160931224

    @pytest.mark.parametrize("delta", [0.0, 1.0, -1e-5, 2.0])
    def test_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
            PrivacyLedger(target_epsilon=10.0, delta=delta, noise_multiplier=1.0,
                          total_rounds=5)

    @pytest.mark.parametrize("sigma", [0.0, 1e-170])
    def test_infinite_epsilon_has_no_alpha_star(self, sigma):
        # sigma^2 underflows to 0 at 1e-170: both are sigma 0 to the accountant.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no DP; overspent target
            ledger = PrivacyLedger(target_epsilon=10.0, delta=1e-5, noise_multiplier=sigma,
                                   total_rounds=2).update()
        assert ledger.eps_spent_rdp == math.inf and math.isnan(ledger.alpha_star)
        assert "eps_rdp=inf\neps_linear=5.0\nalpha_star=nan\n" in ledger.dump()

    def test_dump_format(self):
        ledger = PrivacyLedger(
            target_epsilon=100.0, delta=1e-5, noise_multiplier=1.5, total_rounds=4
        )
        ledger.update()
        text = ledger.dump()
        assert "sigma=1.5" in text
        assert "rounds=1" in text
        assert "eps_linear=25.0" in text
