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
        # xi = 2 + 1e-12 takes np.power where xi = 2 takes x * x: the same Gamma
        frac = RateFunction.power(1.0, 2.0 + 1e-12)
        assert gamma(1.2, 1.0, frac) == pytest.approx(gamma(1.2, 1.0, FX2), abs=1e-7)


def _a_star_reference(f, lam):
    """Root of Gamma(a) = 1 by scipy alone (lam > 0).

    Gamma = r int_0^inf exp(-w - I(w)) dw with r = a/lam, x = r (1 - e^{-w})
    and I(w) = int_0^w f(x(t)) dt / lam, each by nested quad.
    """
    from scipy import integrate, optimize

    def gamma_ref(a):
        r = a / lam

        def inner(w):
            return integrate.quad(lambda t: f(-r * math.expm1(-t)), 0.0, w, epsabs=1e-14, epsrel=1e-13, limit=200)[0] / lam

        return r * integrate.quad(lambda w: math.exp(-w - inner(w)), 0.0, math.inf, epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    hi = 2.0 * lam
    while gamma_ref(hi) <= 1.0:
        hi *= 2.0
    return optimize.brentq(lambda a: gamma_ref(a) - 1.0, lam * (1.0 + 1e-9), hi, xtol=1e-12)


SWEEP_RATES = {
    "x": {"kind": "power", "c": 1.0, "xi": 1.0},
    "x^2": {"kind": "power", "c": 1.0, "xi": 2.0},
    "x^3": {"kind": "power", "c": 1.0, "xi": 3.0},
    "x+x^2": {"kind": "polynomial", "coeffs": [1.0, 1.0]},
    "x^1.5": {"kind": "power", "c": 1.0, "xi": 1.5},
}


class TestSweep:
    @pytest.mark.parametrize("lam", [0.25 * k for k in range(17)])
    @pytest.mark.parametrize("name", list(SWEEP_RATES))
    def test_cli_gates_hold(self, tmp_path, name, lam):
        from neuronmf.cli import cmd_invariant

        cfg = {"command": "invariant", "system": {"lambda": lam, "rate": SWEEP_RATES[name]}}
        assert cmd_invariant(cfg, tmp_path) == 0

    @pytest.mark.parametrize("lam,xi", [(3.0, 1.0), (4.0, 1.0), (1.0, 1.5)])
    def test_a_star_matches_scipy(self, lam, xi):
        res = solve_a_star(lam, RateFunction.power(1.0, xi))
        assert res.a_star == pytest.approx(_a_star_reference(lambda x: x**xi, lam), abs=1e-6)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rate", [RateFunction.power(1, 60), RateFunction.power(1e12, 2)], ids=["x^60", "1e12x^2"])
    def test_steep_rates_raise_no_warning(self, rate):
        # on a coarse grid the inner exponent can dip far below 0, so its exp
        # overflows; such a pass only doubles the panels
        res = solve_a_star(1.0, rate)
        assert abs(res.residuals["gamma_at_root"]) <= 5e-9


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

    def test_grid_increasing_where_density_is_singular(self):
        # lam 4, f = x: a*/lam^2 < 1, and x(v) rounds to a/lam once lam v/a passes ~37
        res = solve_a_star(4.0, FX)
        assert np.all(np.diff(res.density_xs) > 0)
        assert np.all(np.isfinite(res.density_values))

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


class TestRootSearch:
    def test_mean_passes_over_sweep_grid(self):
        from neuronmf.cli import _rate_from

        passes = [
            solve_a_star(0.25 * k, _rate_from(rate)).gamma_passes for rate in SWEEP_RATES.values() for k in range(17)
        ]
        assert min(passes) >= 1
        assert sum(passes) / len(passes) <= 4.0

    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("rate", [FX, RateFunction.power(1.0, 1.5), RateFunction.polynomial([1.0, 1.0])])
    def test_pass_slope_matches_central_difference(self, lam, rate):
        from neuronmf.invariant import _QUAD_ABS, _pass

        a = lam + 1.0
        h = 1e-4 * a
        central = (gamma(a + h, lam, rate) - gamma(a - h, lam, rate)) / (2.0 * h)
        assert _pass(a, lam, rate, _QUAD_ABS).dgamma == pytest.approx(central, rel=1e-6)

    @pytest.mark.parametrize("c,xi", [(1.0, 1.0), (1.0, 1.5), (1.0, 2.0), (2.5, 3.0)])
    def test_lam0_power_rate_closed_form_in_three_passes(self, c, xi):
        # lam = 0: Gamma(a) = (a (xi+1)/c)^{1/(xi+1)} Gamma_E(1 + 1/(xi+1)), a power of a
        res = solve_a_star(0.0, RateFunction.power(c, xi))
        a_star = c / (xi + 1.0) * euler_gamma(1.0 + 1.0 / (xi + 1.0)) ** -(xi + 1.0)
        assert res.a_star == pytest.approx(a_star, abs=1e-8)
        assert res.gamma_passes <= 3

    def test_step_below_lam_bisects_to_the_root(self, monkeypatch):
        # lam 1, f = x^2/100: Gamma(2) > 1 and the Newton step from a = 2 lands below lam
        from neuronmf import invariant

        seen = []
        real_pass = invariant._pass

        def recording_pass(a, lam, rate, tol, **kw):
            seen.append(a)
            return real_pass(a, lam, rate, tol, **kw)

        monkeypatch.setattr(invariant, "_pass", recording_pass)
        res = solve_a_star(1.0, RateFunction.power(0.01, 2.0))
        assert min(seen) > 1.0
        assert res.a_star == pytest.approx(_a_star_reference(lambda x: 0.01 * x * x, 1.0), abs=1e-6)
        assert res.residuals["gamma_at_root"] <= 0.5e-8

    def test_every_root_pass_goes_through_gamma(self, monkeypatch):
        # profilers count root passes by wrapping the module's gamma
        from neuronmf import invariant

        calls = []
        real_gamma = invariant.gamma

        def counting_gamma(*args, **kw):
            calls.append(args[0])
            return real_gamma(*args, **kw)

        monkeypatch.setattr(invariant, "gamma", counting_gamma)
        res = solve_a_star(1.0, FX)
        assert len(calls) == res.gamma_passes
        assert calls[-1] == res.a_star
