import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from neuronmf import (
    ConfigError,
    DriftSeries,
    InitialLaw,
    OutOfGridError,
    RateFunction,
    SystemConfig,
    Tolerances,
    flow,
    substream,
    survival,
)
from oracles import reference_rate

FX = RateFunction.power(1, 1)
FX2 = RateFunction.power(1, 2)
# x, 2x, x^2, 0.5 x^2, x^1.5, 1.5 x^3 and 0.5 x + x^3: every branch of the rate kernel
KERNEL_RATES = [
    FX,
    RateFunction.power(2, 1),
    FX2,
    RateFunction.power(0.5, 2),
    RateFunction.power(1, 1.5),
    RateFunction.power(1.5, 3),
    RateFunction.polynomial([0.5, 0, 1]),
]
# zeros, subnormals, values whose square or cube overflows to inf, inf and nan
KERNEL_EDGES = np.array([0.0, 5e-324, 1e-310, 2.5e-308, 1e-160, 0.3, 1.0, 2.5, 1e103, 1e200, np.inf, np.nan])


class TestRateFunction:
    def test_power_basics(self):
        assert FX2(3.0) == 9.0

    def test_fractional_power(self):
        f = RateFunction.power(2.0, 1.5)
        x = 1.7
        assert f(x) == pytest.approx(2 * x**1.5)

    def test_polynomial(self):
        f = RateFunction.polynomial([1.0, 0.0, 2.0])  # x + 2x^3
        assert f(2.0) == pytest.approx(2 + 16)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigError):
            RateFunction.power(-1.0, 2.0)
        with pytest.raises(ConfigError):
            RateFunction.power(1.0, 0.5)
        with pytest.raises(ConfigError):
            RateFunction.polynomial([1.0, -0.5])
        with pytest.raises(ConfigError):
            RateFunction.polynomial([])
        with pytest.raises(ConfigError):
            RateFunction.polynomial([0.0, 0.0])
        for c, xi in [(math.inf, 2.0), (math.nan, 2.0), (1.0, math.inf), (1.0, math.nan)]:
            with pytest.raises(ConfigError):
                RateFunction.power(c, xi)
        for coeffs in ([math.nan, 1.0], [1.0, math.inf]):
            with pytest.raises(ConfigError):
                RateFunction.polynomial(coeffs)

    def test_describe(self):
        # reports print these dicts, so they must not change
        assert RateFunction.power(1, 2).describe() == {"kind": "power", "c": 1.0, "xi": 2.0}
        assert RateFunction.power(2, 1.5).describe() == {"kind": "power", "c": 2.0, "xi": 1.5}
        f = RateFunction.polynomial([0.0, 1.0, 1.0])
        assert f.describe() == {"kind": "polynomial", "coeffs": [0.0, 1.0, 1.0]}
        f.describe()["coeffs"].append(5.0)
        assert f.describe() == {"kind": "polynomial", "coeffs": [0.0, 1.0, 1.0]}

    def test_terms_keep_their_arithmetic(self):
        # x and x^2 are products, other exponents np.power; zero coefficients drop out
        x = np.linspace(0.0, 7.0, 1001)
        f = RateFunction.polynomial([0.5, 0.0, 2.0, 1.0])
        assert f.terms == ((1, 0.5), (3, 2.0), (4, 1.0))
        assert np.array_equal(f(x), 0.5 * x + 2.0 * np.power(x, 3) + np.power(x, 4))
        assert np.array_equal(RateFunction.polynomial([0.0, 3.0])(x), 3.0 * (x * x))
        assert np.array_equal(RateFunction.power(2.0, 1.5)(x), 2.0 * np.power(x, 1.5))
        assert RateFunction.power(1.0, 2.0)(0.7) == 0.7 * 0.7


    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.builds(RateFunction.power, st.floats(1e-3, 1e3), st.floats(1.0, 6.0)),
            st.builds(RateFunction.polynomial, st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3)),
        ),
        st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=50),
    )
    def test_a1_holds_by_construction(self, f, points):
        # A1: f(0) = 0, f nondecreasing, and f > 0 on (0, inf), for every rate the constructors accept
        grid = np.array([0.0] + sorted(points))
        fx = np.asarray(f(grid), dtype=float)
        assert fx[0] == 0.0
        assert np.all(np.diff(fx) >= 0)
        assert np.all(fx[1:] > 0)

    def test_lower_linear_bound_for_power_rates(self):
        # f convex with f(0)=0 implies f(x) >= f(1) x for x >= 1
        grid = np.linspace(1.0, 50.0, 200)
        for f in (FX2, RateFunction.power(0.5, 3)):
            c = f(1.0)
            assert np.all(np.asarray(f(grid)) >= c * grid - 1e-12)


def _evaluated(fn):
    """fn()'s bytes and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn()
    return np.asarray(value, dtype=float).tobytes(), [str(w.message) for w in caught]


class TestRateKernel:
    @pytest.mark.parametrize("rate", KERNEL_RATES, ids=lambda r: str(r.terms))
    @pytest.mark.parametrize("shape", [(12,), (3, 12)])
    def test_out_is_bitwise_the_value_without_it(self, rate, shape):
        # rate(x) is bitwise the reference kernel, warnings included;
        # rows of the edge values in three orders, so a (k, n) input is not k copies of one row
        x = np.stack([np.roll(KERNEL_EDGES, k) for k in range(3)]).reshape(-1)[: math.prod(shape)].reshape(shape)
        expected = _evaluated(lambda: reference_rate(rate, x))
        assert _evaluated(lambda: rate(x)) == expected
        values = np.frombuffer(expected[0])
        assert np.isinf(values).any() and np.isnan(values).any()

    def test_x_is_its_argument(self):
        # 1.0 * x is exact, so f(x) = x hands back x itself
        assert FX(KERNEL_EDGES) is KERNEL_EDGES
        assert RateFunction.power(2, 1)(KERNEL_EDGES) is not KERNEL_EDGES
        # as a first term, x itself is added to the next term and is left as it was
        x = KERNEL_EDGES.copy()
        poly = RateFunction.polynomial([1.0, 1.0])
        assert _evaluated(lambda: poly(x)) == _evaluated(lambda: reference_rate(poly, KERNEL_EDGES))
        assert np.array_equal(x, KERNEL_EDGES, equal_nan=True)


class TestInitialLaw:
    def test_point_mass(self):
        law = InitialLaw.point_mass(1.0)
        assert np.all(law.sample(substream(1, "a"), 5) == 1.0)

    def test_exponential_sample_mean(self):
        # CLT band: |mean - 1| < 4/sqrt(n) for Exp(1)
        n = 10_000
        s = InitialLaw.exponential(1.0).sample(substream(7, "clt"), n)
        assert abs(s.mean() - 1.0) < 4 / math.sqrt(n)
        assert np.all(s >= 0)

    def test_truncated_density_normalizes(self):
        xs = np.linspace(0, 5, 200)
        law = InitialLaw.from_grid(xs, 3.7 * np.exp(-xs))
        assert np.trapezoid(law.density_values, law.xs) == pytest.approx(1.0, abs=1e-12)
        s = law.sample(substream(3, "td"), 2000)
        assert np.all((s >= 0) & (s <= 5))

    def test_invalid_laws_rejected(self):
        with pytest.raises(ConfigError):
            InitialLaw.exponential(0.0)
        with pytest.raises(ConfigError):
            InitialLaw.point_mass(-1.0)
        with pytest.raises(ConfigError):
            InitialLaw.from_grid([0, 1], [-1.0, 1.0])


class TestSystemConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SystemConfig(n=0, lam=0.0, rate=FX, initial=InitialLaw.point_mass(1), horizon=1.0, seed=1)
        with pytest.raises(ConfigError):
            SystemConfig(n=1, lam=-0.1, rate=FX, initial=InitialLaw.point_mass(1), horizon=1.0, seed=1)
        for lam, horizon in [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)]:
            with pytest.raises(ConfigError):
                SystemConfig(n=1, lam=lam, rate=FX, initial=InitialLaw.point_mass(1), horizon=horizon, seed=1)
        with pytest.raises(ConfigError):
            Tolerances(mass_abs=0.0)
        for bad in [{"mass_abs": math.nan}, {"mass_abs": math.inf}, {"dt": math.nan}, {"dt": -0.1}]:
            with pytest.raises(ConfigError):
                Tolerances(**bad)

    def test_default_dt(self):
        cfg = SystemConfig(n=1, lam=0.0, rate=FX, initial=InitialLaw.point_mass(1), horizon=2.0, seed=1)
        assert cfg.dt == pytest.approx(2e-3)


class TestFlow:
    def test_no_decay_constant_drift(self):
        d = DriftSeries.constant(1.0, 5.0)
        assert flow(0.0, 2.0, 3.0, 0.0, d) == pytest.approx(5.0, abs=1e-10)

    def test_pure_decay(self):
        d = DriftSeries.constant(0.0, 5.0)
        assert flow(1.0, 3.0, 2.0, 1.0, d) == pytest.approx(2 * math.exp(-2), abs=1e-10)

    def test_decay_with_drift(self):
        d = DriftSeries.constant(1.0, 5.0)
        expect = 3 * math.exp(-2) + 1 - math.exp(-2)
        assert flow(0.0, 2.0, 3.0, 1.0, d) == pytest.approx(expect, abs=1e-9)

    def test_identity_at_equal_times(self):
        d = DriftSeries.constant(1.0, 5.0)
        assert flow(2.0, 2.0, 7.0, 1.0, d) == 7.0

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_no_start_times_give_empty_arrays(self, lam):
        # flow, like survival, maps an empty array of start times to an empty array
        d = DriftSeries.constant(1.0, 4.0)
        for out in (flow(np.array([]), 2.0, 1.0, lam, d), survival(np.array([]), 2.0, 1.0, FX2, lam, d)):
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_out_of_grid(self):
        d = DriftSeries.constant(1.0, 5.0)
        with pytest.raises(OutOfGridError):
            flow(0.0, 6.0, 1.0, 1.0, d)
        # a start time past t, behind one inside the grid
        with pytest.raises(OutOfGridError):
            flow(np.array([0.5, 3.0]), 1.0, 0.0, 1.0, DriftSeries.constant(1.0, 4.0))

    def test_monotone_slope(self):
        # x -> phi_{s,t}(x) is affine with slope exp(-lam (t-s))
        d = DriftSeries(np.linspace(0, 4, 9), 0.5 + 0.3 * np.cos(np.linspace(0, 4, 9)))
        lam, s, t = 0.7, 0.5, 3.1
        f0 = flow(s, t, 0.0, lam, d)
        f1 = flow(s, t, 1.0, lam, d)
        assert f1 - f0 == pytest.approx(math.exp(-lam * (t - s)), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.floats(0.0, 3.9),
        ds=st.floats(0.0, 1.0),
        dtt=st.floats(0.0, 1.0),
        x=st.floats(0.0, 10.0),
        lam=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_semigroup(self, r, ds, dtt, x, lam):
        d = DriftSeries(np.linspace(0, 6, 13), 0.4 + 0.2 * np.sin(np.linspace(0, 6, 13)))
        s = min(r + ds, 6.0)
        t = min(s + dtt, 6.0)
        lhs = flow(r, t, x, lam, d)
        rhs = flow(s, t, flow(r, s, x, lam, d), lam, d)
        assert abs(lhs - rhs) <= 2e-8 + 1e-12 * abs(lhs)


    @pytest.mark.parametrize("lam", [0.0, 1e-9, 1e-4, 0.5, 1.0, 50.0, 1e4])
    def test_integral_matches_quad_on_a_nonuniform_drift(self, lam):
        # I(q) on the drift nodes and between them against segment-wise quad;
        # lam * h spans both sides of the series cut-over across these lambdas
        rng = np.random.default_rng(29)
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 298)), [3.0]])
        a = rng.uniform(0.0, 2.0, t.size)
        fi = DriftSeries(t, a).integral(lam)
        assert fi.segments.shape[1] == t.size - 1

        def part(k, lo, hi):  # int_lo^hi exp(-lam (hi - u)) a_u du inside segment k
            slope = (a[k + 1] - a[k]) / (t[k + 1] - t[k])
            g = lambda u: math.exp(-lam * (hi - u)) * (a[k] + slope * (u - t[k]))
            return quad(g, lo, hi, epsabs=0.0, epsrel=1e-13)[0]

        at_node = [0.0]
        for k in range(t.size - 1):
            at_node.append(at_node[-1] * math.exp(-lam * (t[k + 1] - t[k])) + part(k, t[k], t[k + 1]))
        q = np.sort(np.concatenate([t, rng.uniform(0.0, 3.0, 100)]))
        k = np.minimum(np.searchsorted(t, q, side="right") - 1, t.size - 2)
        ref = [at_node[j] * math.exp(-lam * (x - t[j])) + part(j, t[j], x) for j, x in zip(k, q)]
        assert np.max(np.abs(fi.rows(q) - ref)) <= 1e-13
        assert fi.at(q[50]) == pytest.approx(ref[50], abs=1e-13)

    def test_integral_memory_stays_on_the_drift_nodes(self):
        # a stiff lambda costs one pass over the drift's own 1,001 nodes
        t = np.linspace(0.0, 2.0, 1001)
        d = DriftSeries(t, 1.0 + np.sin(3.0 * t))
        tracemalloc.start()
        try:
            fi = d.integral(1e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fi.segments.shape[1] == t.size - 1
        assert peak < 1 << 20


class TestSurvival:
    def test_constant_rate(self):
        d = DriftSeries.constant(0.0, 5.0)
        assert survival(0.0, 2.0, 1.0, FX, 0.0, d) == pytest.approx(math.exp(-2), abs=1e-8)

    def test_zero_state_is_immortal_without_drift(self):
        d = DriftSeries.constant(0.0, 5.0)
        assert survival(0.0, 3.0, 0.0, FX2, 1.0, d) == 1.0

    def test_linear_growth(self):
        # f=x, lam=0, a=1, from 0: exponent int_0^t u du = t^2/2
        d = DriftSeries.constant(1.0, 5.0)
        assert survival(0.0, 2.0, 0.0, FX, 0.0, d) == pytest.approx(math.exp(-2.0), abs=1e-8)

    def test_monotone_in_time(self):
        d = DriftSeries.constant(1.0, 5.0)
        vals = [survival(0.0, t, 0.5, FX2, 1.0, d) for t in [0.5, 1.0, 2.0, 4.0]]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize(
        "rate", [FX2, RateFunction.polynomial([1.0, 1.0]), RateFunction.power(1, 1.5)], ids=["x2", "x+x2", "x1.5"]
    )
    def test_vectorized_matches_scalar_calls(self, lam, rate):
        d = DriftSeries(np.linspace(0, 6, 13), 0.4 + 0.2 * np.sin(np.linspace(0, 6, 13)))
        tol = 1e-8  # survival's tolerance on the exponent
        # unsorted start times, repeated ones, one off the drift grid and one at t
        s = np.array([2.0, 0.0, 1.3, 3.0, 0.5, 2.0, 2.75])
        x = np.array([0.0, 0.4, 1.0, 2.5])
        grid = survival(s[:, None], 3.0, x[None, :], rate, lam, d)
        assert grid.shape == (s.size, x.size)
        for i, j in np.ndindex(grid.shape):
            one = survival(float(s[i]), 3.0, float(x[j]), rate, lam, d)
            assert isinstance(one, float)
            assert abs(grid[i, j] - one) <= 10 * tol
        assert np.all(grid[3] == 1.0)  # s = t

    def test_doublings_evaluate_only_new_midpoints(self):
        # with a constant drift the integrand is quadratic on each of the 12
        # segments, so Simpson is exact and the check passes at 4 panels; the
        # 12 * 4 + 1 distinct nodes are each evaluated once (evaluating every
        # level afresh took 12 * (3 + 5))
        d = DriftSeries(np.linspace(0, 6, 13), np.full(13, 0.5))
        sizes = []

        def rate(y):
            sizes.append(np.size(y))
            return FX2(y)

        # x(u) = 0.5 + 0.5 u, and int_0^6 x(u)^2 du = 28.5
        assert survival(0.0, 6.0, 0.5, rate, 0.0, d) == pytest.approx(math.exp(-28.5))
        assert sum(sizes) == 12 * 4 + 1

    @pytest.mark.parametrize("rate", [FX, FX2, RateFunction.power(1, 1.5), RateFunction.polynomial([0.5, 0, 1])],
                             ids=["x", "x2", "x1.5", "poly"])
    def test_buffers_give_the_bits_of_fresh_arrays(self, rate):
        # a RateFunction in the sweep gives the bits of a plain callable of the reference kernel,
        # f(x) = x included, which hands back the sweep's own positions;
        # 3,000 points from s = 0 take 10 nodes per chunk, so runs end in a short chunk
        d = DriftSeries(np.linspace(0, 3, 31), 0.5 + 0.3 * np.sin(np.linspace(0, 3, 31)))
        s, x = np.linspace(0.0, 2.5, 40), np.linspace(0.0, 2.0, 40)
        for lam in (0.0, 1.0):
            for args in ((s, 3.0, 0.0), (0.0, 3.0, np.linspace(0.0, 2.0, 3000)), (s, 3.0, x)):
                fresh = survival(*args, lambda y: np.array(reference_rate(rate, y)), lam, d)
                assert survival(*args, rate, lam, d).tobytes() == fresh.tobytes()

    def test_empty_and_broadcast_shapes(self):
        d = DriftSeries.constant(1.0, 5.0)
        assert survival(np.array([]), 2.0, 0.0, FX, 0.0, d).shape == (0,)
        assert survival(np.zeros((2, 3)), 2.0, 1.0, FX, 0.0, d) == pytest.approx(np.full((2, 3), math.exp(-4.0)))

    @settings(max_examples=25, deadline=None)
    @given(
        r=st.floats(0.1, 2.0),
        gap=st.floats(0.1, 1.5),
        x=st.floats(0.0, 4.0),
        lam=st.sampled_from([0.0, 1.0]),
    )
    def test_multiplicative(self, r, gap, x, lam):
        d = DriftSeries(np.linspace(0, 6, 13), 0.4 + 0.2 * np.sin(np.linspace(0, 6, 13)))
        s = r + gap
        t = min(s + gap, 6.0)
        lhs = survival(r, t, x, FX2, lam, d)
        mid = flow(r, s, x, lam, d)
        rhs = survival(r, s, x, FX2, lam, d) * survival(s, t, mid, FX2, lam, d)
        assert lhs == pytest.approx(rhs, abs=5e-8)
