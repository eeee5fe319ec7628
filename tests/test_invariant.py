import math

import numpy as np
import pytest
from scipy.special import gamma as euler_gamma

from neuronmf import (
    InitialLaw,
    RateFunction,
    SystemConfig,
    SmoothFunction,
    gamma,
    invariant_density,
    solve_a_star,
    solve_marginals,
    stationarity_residual,
)

FX = RateFunction.power(1, 1)
FX2 = RateFunction.power(1, 2)


class TestGamma:
    def test_gaussian_closed_form_lam0(self):
        # f=x, lam=0: Gamma(a) = sqrt(pi a / 2)
        for a in [0.3, 2 / math.pi, 1.0, 2.5]:
            assert gamma(a, 0.0, FX) == pytest.approx(math.sqrt(math.pi * a / 2), abs=1e-9)

    def test_unit_value_lam1(self):
        assert gamma(1.0, 1.0, FX) == pytest.approx(math.e - 2, abs=1e-9)

    def test_value_at_two_lam1(self):
        assert gamma(2.0, 1.0, FX) == pytest.approx((math.e**2 - 5) / 2, abs=1e-9)

    def test_monotone(self):
        vals = [gamma(a, 1.0, FX2) for a in [0.2, 0.5, 1.0, 2.0, 4.0]]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma(0.0, 1.0, FX)

    def test_fractional_exponent_consistent_with_integer_path(self):
        # the numeric inner integral must agree with the closed form at xi=2
        frac = RateFunction.power(1.0, 2.0 + 1e-12)
        assert frac.integer_exponents() is None
        assert gamma(1.2, 1.0, frac) == pytest.approx(gamma(1.2, 1.0, FX2), abs=1e-7)


class TestSolveAStar:
    def test_linear_rate_lam0_closed_form(self):
        res = solve_a_star(0.0, FX)
        assert res.p == pytest.approx(2 / math.pi, abs=1e-6)
        assert res.m == pytest.approx(2 / math.pi, abs=1e-6)
        assert res.a_star == pytest.approx(2 / math.pi, abs=1e-6)
        assert res.support_right == math.inf
        assert res.residuals["fixed_point"] <= 1e-7

    def test_square_rate_lam0_closed_form(self):
        # g = exp(-x^3/(3p)) normalizes via (3p)^{1/3} Gamma(4/3) = 1
        res = solve_a_star(0.0, FX2)
        p_expect = 1.0 / (3 * euler_gamma(4 / 3) ** 3)
        assert res.p == pytest.approx(p_expect, abs=1e-6)

    def test_linear_rate_lam1_bracket(self):
        res = solve_a_star(1.0, FX)
        assert 1.0 < res.a_star < 2.0
        assert res.m + res.p > 1.0
        assert res.support_right == pytest.approx(res.a_star, rel=1e-7)
        assert abs(res.residuals["gamma_at_root"]) <= 1e-8
        assert res.residuals["fixed_point"] <= 1e-5

    def test_rejects_invalid_rate(self):
        with pytest.raises(Exception):
            solve_a_star(1.0, RateFunction.polynomial([0.0]))


class TestInvariantDensity:
    def test_boundary_values(self):
        res0 = solve_a_star(0.0, FX)
        assert invariant_density(res0, 0.0) == 1.0
        res1 = solve_a_star(1.0, FX)
        assert invariant_density(res1, 0.0) == pytest.approx(res1.p / res1.a_star, rel=1e-12)

    def test_reference_point(self):
        res = solve_a_star(0.0, FX)
        assert invariant_density(res, 1.0) == pytest.approx(math.exp(-math.pi / 4), abs=1e-5)

    def test_zero_outside_support(self):
        res = solve_a_star(1.0, FX)
        assert invariant_density(res, res.support_right + 1e-6) == 0.0
        assert invariant_density(res, res.support_right + 5.0) == 0.0

    def test_normalized(self):
        res = solve_a_star(1.0, FX2)
        assert np.trapezoid(res.density_values, res.density_xs) == pytest.approx(1.0, abs=1e-5)


class TestStationarity:
    TFS = [
        SmoothFunction(value=lambda x: np.ones_like(np.asarray(x, float)), deriv=lambda x: np.zeros_like(np.asarray(x, float)), name="one"),
        SmoothFunction(value=np.arctan, deriv=lambda x: 1.0 / (1.0 + np.asarray(x, float) ** 2), name="arctan"),
        SmoothFunction(value=np.tanh, deriv=lambda x: 1.0 / np.cosh(np.asarray(x, float)) ** 2, name="tanh"),
    ]

    def test_constant_function_exact_zero(self):
        res = solve_a_star(0.0, FX)
        only_const = [self.TFS[0]]
        assert stationarity_residual(res, only_const) <= 1e-12

    @pytest.mark.parametrize("lam,rate", [(0.0, FX), (1.0, FX), (1.0, FX2)])
    def test_generator_pairing_small(self, lam, rate):
        res = solve_a_star(lam, rate)
        assert stationarity_residual(res, self.TFS) <= 1e-7

    def test_delta_zero_is_fixed_point_of_dynamics(self):
        cfg = SystemConfig(
            n=1, lam=1.0, rate=FX2, initial=InitialLaw.point_mass(0.0), horizon=1.0, seed=1
        )
        sol = solve_marginals(cfg, snapshot_times=[1.0])
        assert np.all(sol.p == 0.0) and np.all(sol.a == 0.0)
        snap = sol.snapshots[-1]
        assert snap.mass() == pytest.approx(1.0)  # the atom holds all mass
        assert snap.atoms[0][3] == pytest.approx(1.0)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_invariant_density_is_stationary_under_solver(self, lam):
        res = solve_a_star(lam, FX)
        law = InitialLaw.from_grid(res.density_xs, res.density_values)
        cfg = SystemConfig(n=1, lam=lam, rate=FX, initial=law, horizon=5.0, seed=1)
        sol = solve_marginals(cfg, snapshot_times=[2.5, 5.0])
        hi = res.density_xs[-1] * 1.05
        ys = np.linspace(0.0, hi, 4001)
        for snap in sol.snapshots:
            l1 = np.trapezoid(np.abs(snap.density(ys) - invariant_density(res, ys)), ys)
            assert l1 < 1e-3


class TestSimpsonRefine:
    def test_unreached_tolerance_raises(self):
        from neuronmf import QuadratureError
        from neuronmf.quadrature import simpson_refine

        step = lambda x: np.where(x < 1 / 3, 0.0, 1.0)  # noqa: E731
        with pytest.raises(QuadratureError, match="did not reach tol"):
            simpson_refine(step, 0.0, 1.0, 1e-15, max_doublings=3)
        with pytest.raises(QuadratureError, match="non-finite"), np.errstate(divide="ignore", invalid="ignore"):
            simpson_refine(lambda x: 1.0 / x, 0.0, 1.0, 1e-15, max_doublings=3)
