import math

import numpy as np
import pytest
from scipy.special import gamma as euler_gamma

from neuronmf import (
    InitialLaw,
    RateFunction,
    SystemConfig,
    gamma,
    invariant_density,
    solve_a_star,
    solve_marginals,
)
from oracles import SmoothFunction, stationarity_residual

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
    @staticmethod
    def recording(f):
        calls = []

        def g(x):
            calls.append(np.array(x))
            return f(x)

        return g, calls

    def test_cubic_exact_from_one_call(self):
        from neuronmf.quadrature import simpson_refine

        f, calls = self.recording(lambda x: x**3 - 2.0 * x + 1.0)
        est, change = simpson_refine(f, 0.0, 2.0, 1e-12)
        assert len(calls) == 1 and calls[0].size == 9
        assert est == pytest.approx(2.0, abs=1e-14)  # 4 - 4 + 2
        assert change < 1e-14

    def test_doublings_see_each_node_once(self):
        from neuronmf.quadrature import simpson_refine

        f, calls = self.recording(np.exp)
        for k in range(4):
            calls.clear()
            simpson_refine(f, -1.0, 2.0, 0.0, n0=12, max_doublings=k)  # tol 0: every doubling runs
            seen = np.sort(np.concatenate(calls))
            assert len(calls) == k + 1
            assert np.unique(seen).size == seen.size  # no node twice
            np.testing.assert_allclose(seen, np.linspace(-1.0, 2.0, 12 * 2**k + 1), rtol=0, atol=1e-15)

    def test_unreached_tolerance_returns_the_change(self):
        from neuronmf.quadrature import simpson_refine

        f, calls = self.recording(lambda x: np.where(x < 1 / 3, 0.0, 1.0))
        est, change = simpson_refine(f, 0.0, 1.0, 1e-15, max_doublings=3)
        assert len(calls) == 4
        assert change >= 1e-15
        assert est == pytest.approx(2 / 3, abs=1e-2)


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


def _bitwise_equal(got, ref):
    """Names of the pass fields where got and the reference pass differ in any bit."""
    fields = ("v", "inner", "slope", "gamma", "gamma1", "gamma2", "gamma3", "dgamma")
    arrays = ((np.asarray(getattr(got, f), float), np.asarray(getattr(ref, f), float)) for f in fields)
    return [f for f, (x, y) in zip(fields, arrays) if x.shape != y.shape or x.tobytes() != y.tobytes()]


PASS_RATES = {
    "x": FX,
    "x^1.5": RateFunction.power(1.0, 1.5),
    "x^3": RateFunction.power(1.0, 3.0),
    "x+x^2": RateFunction.polynomial([1.0, 1.0]),
}


class TestPassMatchesReference:
    """_pass, with its V ladder and its levels read off one fine grid, against
    the one-grid-per-level loop it replaced (tests/oracles.py), bit for bit."""

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.5, 4.0])
    @pytest.mark.parametrize("name", list(PASS_RATES))
    def test_every_field_bitwise(self, name, lam):
        from oracles import reference_pass

        from neuronmf.invariant import _MAX_DOUBLINGS, _PANELS, _QUAD_ABS, _pass

        rate = PASS_RATES[name]
        a_star = solve_a_star(lam, rate).a_star
        for a in (0.5 * a_star, a_star, 2.0 * a_star):
            for tol in (_QUAD_ABS, 0.1 * _QUAD_ABS):
                ref = reference_pass(a, lam, rate, tol)
                exact = ref.v.size - 1
                for hint in (None, _PANELS, exact, min(4 * exact, _PANELS << _MAX_DOUBLINGS)):
                    got = _pass(a, lam, rate, tol, hint=hint)
                    assert got.panels == exact
                    assert _bitwise_equal(got, ref) == [], (a, tol, hint)

    @pytest.mark.parametrize("lam,a,tol", [(2.5, 3.5, 1e-11), (4.0, 11.0, 1e-10), (4.0, 11.0, 1e-11)])
    def test_v_growing_after_a_doubling(self, lam, a, tol):
        # x^60: the tail test passes at 16 panels, fails again on a finer grid,
        # and V grows there, so the fine grid of the first V must not be reused
        from oracles import reference_pass

        from neuronmf.invariant import _ladder, _pass

        rate = RateFunction.power(1.0, 60.0)
        ref = reference_pass(a, lam, rate, tol)
        assert ref.v[-1] > _ladder(a, lam, rate, tol)
        exact = ref.v.size - 1
        for hint in (None, 16, exact, 4 * exact):
            assert _bitwise_equal(_pass(a, lam, rate, tol, hint=hint), ref) == [], hint

    @pytest.mark.parametrize("name", ["x", "x+x^2"])
    def test_first_rung_of_the_ladder(self, name):
        # lambda 0 and a = 0.01, far below a*: the inner exponent passes 25
        # by v = 1, so V = 1, the ladder's first rung, is the pass's V
        from oracles import reference_pass

        from neuronmf.invariant import _QUAD_ABS, _ladder, _pass

        rate = PASS_RATES[name]
        ref = reference_pass(0.01, 0.0, rate, _QUAD_ABS)
        assert _ladder(0.01, 0.0, rate, _QUAD_ABS) == ref.v[-1] == 1.0
        for hint in (None, 4 * (ref.v.size - 1)):
            assert _bitwise_equal(_pass(0.01, 0.0, rate, _QUAD_ABS, hint=hint), ref) == [], hint

    @pytest.mark.parametrize("c,xi", [(1e-12, 2.0), (5e-324, 3.0)], ids=["doubling-cap", "growth-cap"])
    def test_failure_raises_the_same_message(self, c, xi):
        from oracles import reference_pass

        from neuronmf import QuadratureError
        from neuronmf.invariant import _QUAD_ABS, _pass

        rate = RateFunction.power(c, xi)
        with pytest.raises(QuadratureError) as ref:
            reference_pass(2.0, 1.0, rate, _QUAD_ABS)
        for hint in (None, 1024):
            with pytest.raises(QuadratureError) as got:
                _pass(2.0, 1.0, rate, _QUAD_ABS, hint=hint)
            assert str(got.value) == str(ref.value)


class TestTimeChange:
    """Time u = c t turns rate c f at lambda into rate f at lambda/c: a* and p
    scale by c, and m, a position, does not change."""

    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.5, 4.0])
    @pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
    def test_scaled_rate_solves_the_time_changed_problem(self, c, lam):
        rates = [
            lambda k: RateFunction.power(k, 1.0),
            lambda k: RateFunction.power(k, 1.5),
            lambda k: RateFunction.power(k, 2.0),
            lambda k: RateFunction.polynomial([k, k]),
        ]
        for rate in rates:
            scaled, base = solve_a_star(lam, rate(c)), solve_a_star(lam / c, rate(1.0))
            assert scaled.a_star == pytest.approx(c * base.a_star, rel=1e-7, abs=0.0)
            assert scaled.p == pytest.approx(c * base.p, rel=1e-7, abs=0.0)
            assert scaled.m == pytest.approx(base.m, rel=1e-7, abs=0.0)
