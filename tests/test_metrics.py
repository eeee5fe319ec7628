import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuronmf import (
    InitialLaw,
    RateFunction,
    SystemConfig,
    fit_rate,
    h_distance,
    solve_marginals,
    tv_densities,
    w1_samples_vs_law,
)
from oracles import w1_merged, w1_samples

finite_samples = st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=30)


class TestW1Samples:
    def test_identical(self):
        assert w1_samples([1, 2, 3], [3, 2, 1]) == 0.0

    def test_two_points(self):
        assert w1_samples([0, 2], [1, 1]) == 1.0

    def test_translation(self):
        assert w1_samples(np.zeros(7), np.full(7, 2.5)) == 2.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            w1_samples([1], [1, 2])

    @settings(max_examples=50, deadline=None)
    @given(finite_samples, st.randoms(use_true_random=False))
    def test_symmetry_and_zero(self, u, rnd):
        v = list(u)
        rnd.shuffle(v)
        assert w1_samples(u, v) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 20).flatmap(
            lambda k: st.tuples(
                st.lists(st.floats(0, 50), min_size=k, max_size=k),
                st.lists(st.floats(0, 50), min_size=k, max_size=k),
                st.lists(st.floats(0, 50), min_size=k, max_size=k),
            )
        )
    )
    def test_triangle(self, uvw):
        u, v, w = uvw
        assert w1_samples(u, w) <= w1_samples(u, v) + w1_samples(v, w) + 1e-9


class TestW1VsLaw:
    def test_single_sample_against_its_atom(self):
        assert w1_samples_vs_law([1.3], ((1.3, 1.3), (0.0, 1.0))) == 0.0

    def test_zero_sample_vs_uniform(self):
        # int_0^1 (1 - x) dx = 1/2
        assert w1_samples_vs_law([0.0], ((0.0, 1.0), (0.0, 1.0))) == pytest.approx(0.5)

    def test_exact_quantiles_of_uniform(self):
        n = 200
        qs = (np.arange(n) + 0.5) / n
        val = w1_samples_vs_law(qs, ((0.0, 1.0), (0.0, 1.0)))
        assert val <= 1.0 / n

    def test_empirical_process_rate(self):
        # W1 of n inverse-cdf samples of Exp(1) decays roughly like 1/sqrt(n)
        xs = np.linspace(0, 30, 3001)
        law = (xs, 1 - np.exp(-xs))
        rng = np.random.default_rng(5)
        vals = []
        for n in [100, 400, 1600]:
            vals.append(np.mean([w1_samples_vs_law(rng.exponential(1, n), law) for _ in range(40)]))
        assert vals[0] > vals[1] > vals[2]
        assert vals[0] / vals[2] > 2.0  # 4x samples -> about 2x smaller, twice

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            w1_samples_vs_law([1.0], ((0.0, 1.0), (0.0, 0.7)))


class TestW1Rows:
    """w1_samples_vs_law's quantile rows form (one W1 per row of a 2-d sample) against
    the merged-breakpoint form (tests/oracles.py)."""

    @staticmethod
    def assert_rows_match(rows, law):
        got = w1_samples_vs_law(rows, law)
        want = np.array([w1_merged(row, law) for row in rows])
        assert got.shape == (len(rows),)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("t", [0.25, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_solved_laws(self, lam, t, n):
        cfg = SystemConfig(
            n=1, lam=lam, rate=RateFunction.power(1, 2), initial=InitialLaw.exponential(1.0), horizon=2.0, seed=1
        )
        snap = solve_marginals(cfg, snapshot_times=[t]).snapshot_at(t)
        rows = np.random.default_rng(n).exponential(1.0, size=(5, n))
        rows[0, 0] = 10 * snap.support()[1]  # beyond the support
        self.assert_rows_match(rows, snap.cdf_grid())

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_law_with_an_atom(self, t):
        # a point-mass start keeps an atom in the law, a jump in its cdf
        cfg = SystemConfig(
            n=1, lam=1.0, rate=RateFunction.power(1, 2), initial=InitialLaw.point_mass(0.7), horizon=1.0, seed=1
        )
        snap = solve_marginals(cfg, snapshot_times=[t]).snapshot_at(t)
        atom = snap.atoms[0][1]
        rows = np.random.default_rng(4).uniform(0.0, 2.0, size=(4, 7))
        rows[1] = atom  # every sample on the atom
        rows[2, :3] = atom
        self.assert_rows_match(rows, snap.cdf_grid())

    def test_pure_atom_and_one_sample(self):
        law = ((1.3, 1.3), (0.0, 1.0))
        assert np.array_equal(w1_samples_vs_law([[1.3], [0.3], [2.0]], law), [0.0, 1.0, 0.7])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            w1_samples_vs_law([[1.0]], ((0.0, 1.0), (0.0, 0.7)))


class TestTV:
    def test_equal(self):
        xs = np.linspace(0, 1, 50)
        assert tv_densities(np.ones(50), np.ones(50), xs) == 0.0

    def test_uniforms(self):
        xs = np.linspace(0, 2, 2001)
        d1 = np.where(xs <= 1.0, 1.0, 0.0)
        d2 = np.full_like(xs, 0.5)
        assert tv_densities(d1, d2, xs) == pytest.approx(0.5, abs=1e-3)

    def test_disjoint(self):
        xs = np.linspace(0, 2, 2001)
        d1 = np.where(xs <= 0.9999, 1.0, 0.0)
        d2 = np.where(xs >= 1.0001, 1.0, 0.0)
        assert tv_densities(d1, d2, xs) == pytest.approx(1.0, abs=1e-3)

    def test_symmetry_and_range(self):
        xs = np.linspace(0, 3, 301)
        rng = np.random.default_rng(0)
        d1 = rng.random(301)
        d2 = rng.random(301)
        d1 /= np.trapezoid(d1, xs)
        d2 /= np.trapezoid(d2, xs)
        t12 = tv_densities(d1, d2, xs)
        assert t12 == tv_densities(d2, d1, xs)
        assert 0.0 <= t12 <= 1.0


class TestHDistance:
    F2 = RateFunction.power(1, 2)

    def test_zero(self):
        assert h_distance(1.7, 1.7, self.F2) == 0.0

    def test_reference_value(self):
        assert h_distance(1.0, 0.0, self.F2) == pytest.approx(1.0 + math.pi / 4)

    def test_additive_along_monotone_triples(self):
        for x, y, z in [(0.0, 0.5, 2.0), (1.0, 1.5, 3.0)]:
            lhs = h_distance(x, z, self.F2)
            rhs = h_distance(x, y, self.F2) + h_distance(y, z, self.F2)
            assert lhs == pytest.approx(rhs)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 20), st.floats(0, 20))
    def test_dominates_both_summands(self, x, y):
        d = h_distance(x, y, self.F2)
        assert d >= abs(self.F2(x) - self.F2(y)) - 1e-12
        assert d >= abs(math.atan(x) - math.atan(y)) - 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 50), st.floats(0, 50))
    def test_controls_plain_distance(self, x, y):
        # for f = x^2, H' = 2x + 1/(1+x^2) >= 1, so |x - y| <= |H(x)-H(y)|
        assert abs(x - y) <= h_distance(x, y, self.F2) + 1e-9

    @pytest.mark.parametrize("rate", [F2, RateFunction.polynomial([0.5, 1.0]), RateFunction.power(2, 1.5)])
    def test_arrays_elementwise(self, rate):
        rng = np.random.default_rng(3)
        x, y = rng.exponential(1.0, (3, 40)), rng.exponential(1.0, (3, 40))
        d = h_distance(x, y, rate)
        assert d.shape == (3, 40)
        assert d.tolist() == [[h_distance(a, b, rate) for a, b in zip(xr, yr)] for xr, yr in zip(x, y)]

    def test_arrays_reject_a_negative_entry(self):
        x = np.linspace(0.0, 2.0, 5)
        with pytest.raises(ValueError):
            h_distance(x, np.where(x == 1.0, -1e-300, x), self.F2)
        with pytest.raises(ValueError):
            h_distance(-x, x, self.F2)


class TestFitRate:
    def test_exact_half_slope(self):
        pts = [(n, 3.0 / math.sqrt(n)) for n in [50, 100, 200, 400]]
        fit = fit_rate(pts)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant(self):
        fit = fit_rate([(10, 2.0), (100, 2.0), (1000, 2.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_inverse(self):
        fit = fit_rate([(n, 7.0 / n) for n in [8, 64, 512]])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_rate([(10, 1.0), (20, 0.5)])
        with pytest.raises(ValueError):
            fit_rate([(10, 1.0), (20, -0.5), (30, 0.2)])
