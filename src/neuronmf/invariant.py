"""Invariant probability measures of the limit dynamics.

Besides the trivial point mass at 0, the dynamics admits exactly one
invariant density. With a = p + lam*m (p the stationary mean rate, m the
stationary mean potential) it reads

    g(x) = p / (a - lam x) * exp(-int_0^x f(y)/(a - lam y) dy),   0 <= x < a/lam,

with the convention a/lam = inf when lam = 0, where a is the unique
positive root of

    Gamma(a) = int_0^{a/lam} exp(-int_0^x f(y)/(a - lam y) dy) dx = 1.

Gamma is continuous and strictly increasing, and the root satisfies
a* > lam, so a bracket-and-bisect solve is robust. The inner integral is
evaluated in closed form for integer exponents, else numerically; the
outer integrals use the substitution x = (a/lam)(1 - exp(-v)), which
clusters quadrature nodes at the right end of the support where the
integrand vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import RateFunction, validate_assumptions
from .quadrature import QuadratureError, simpson_refine

# rate evaluations the numeric inner integrals (non-integer exponents at
# lam > 0) may spend in one gamma or solve_a_star call: every outer node
# runs its own adaptive Simpson. One Gamma(1.2) at xi = 2 + 1e-12 takes 7.9e7;
# at xi = 1.5 a single Gamma(2) passes 2.7e8 without converging.
_INNER_EVALUATIONS = 2**27


class _Budget:
    """Rate evaluations left to the inner integrals of one call."""

    def __init__(self, evaluations: int):
        self.total = self.left = evaluations

    def spend(self, k: int):
        self.left -= k
        if self.left < 0:
            raise QuadratureError(f"quadrature budget of {self.total} inner rate evaluations exhausted")


@dataclass
class InvariantResult:
    """Converged nontrivial invariant measure and its diagnostics."""

    lam: float
    rate: RateFunction
    a_star: float
    p: float
    m: float
    support_right: float
    density_xs: np.ndarray
    density_values: np.ndarray
    residuals: dict = field(default_factory=dict)

    def density(self, x):
        return invariant_density(self, x)

    def cdf_grid(self):
        """Piecewise-linear cdf representation on the stored grid."""
        from .quadrature import cumulative_trapezoid

        cdf = cumulative_trapezoid(self.density_values, self.density_xs)
        return self.density_xs, cdf

    def summary(self) -> dict:
        return {
            "lambda": self.lam,
            "rate": self.rate.describe(),
            "a_star": self.a_star,
            "p": self.p,
            "m": self.m,
            "support_right": self.support_right,
            "residuals": dict(self.residuals),
        }


def _inner_exponent(rate: RateFunction, a: float, lam: float, x, tol: float, budget: _Budget | None = None):
    """int_0^x f(y) / (a - lam y) dy, vectorized in x (x < a/lam)."""
    x = np.asarray(x, dtype=float)
    if lam == 0.0:
        return np.asarray(rate.antideriv(x), dtype=float) / a
    r = a / lam
    terms = rate.integer_exponents()
    if terms is not None:
        # recursive antiderivative of y^n/(r - y):
        #   int_0^x = r^n log(r/(r-x)) - sum_{k=0}^{n-1} r^k x^(n-k)/(n-k)
        # x == r (float rounding at the support edge) gives +inf, which
        # correctly maps to a vanishing density
        out = np.zeros_like(x)
        with np.errstate(divide="ignore"):
            log_term = -np.log1p(-x / r)
        for n, cn in terms:
            acc = (r**n) * log_term
            for k in range(n):
                acc -= (r**k) * np.power(x, n - k) / (n - k)
            out += (cn / lam) * acc
        return out
    # non-integer power: substitute u = -log(a - lam y), smooth bounded integrand
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    out = np.empty_like(xv)
    for i, xi in enumerate(xv):
        if xi <= 0:
            out[i] = 0.0
            continue
        v1 = -math.log1p(-xi / r)

        def integrand(v):
            if budget is not None:
                budget.spend(v.size)
            return np.asarray(rate(r * (-np.expm1(-v))), dtype=float)

        out[i] = simpson_refine(integrand, 0.0, v1, tol * 0.1) / lam
    return float(out[0]) if scalar else out


def _tail_cut_lam0(rate: RateFunction, a: float, tol: float) -> float:
    """x beyond which the remaining integral of exp(-F(x)/a) is below tol.

    Uses F(x) >= F(X) + f(X)(x - X) for x >= X (f nondecreasing), giving
    the tail bound exp(-F(X)/a) * a / f(X).
    """
    x = 1.0
    for _ in range(200):
        fx = float(rate(x))
        if fx > 0 and math.exp(-float(rate.antideriv(x)) / a) * a / fx < 0.1 * tol:
            return x
        x *= 1.5
    raise RuntimeError("tail of the stationary density does not decay")


def _tail_cut_v(rate: RateFunction, a: float, lam: float, tol: float, budget: _Budget | None = None) -> float:
    """v beyond which the v-substituted outer integrals are below tol."""
    r = a / lam
    v = 1.0
    for _ in range(200):
        x = r * (-math.expm1(-v))
        fx = float(rate(x))
        inner = float(_inner_exponent(rate, a, lam, x, tol, budget))
        # d(inner)/dv = f(x(v))/lam and f is nondecreasing along v
        if fx > 0 and math.exp(-inner) * lam / fx < 0.1 * tol:
            return v
        v *= 1.5
    raise RuntimeError("outer integrand does not decay near the support edge")


def gamma(a: float, lam: float, rate: RateFunction, tol: float = 1e-10, budget: _Budget | None = None) -> float:
    """The scalar monotone function whose unit root determines the invariant law.

    Raises QuadratureError once its inner integrals spend more than
    _INNER_EVALUATIONS rate evaluations (or the given budget runs out).
    """
    if a <= 0:
        raise ValueError("gamma needs a > 0")
    budget = budget or _Budget(_INNER_EVALUATIONS)
    if lam == 0.0:
        x_max = _tail_cut_lam0(rate, a, tol)
        return simpson_refine(
            lambda x: np.exp(-np.asarray(rate.antideriv(x), float) / a), 0.0, x_max, tol
        )
    r = a / lam
    v_max = _tail_cut_v(rate, a, lam, tol, budget)

    def integrand(v):
        x = r * (-np.expm1(-v))
        return np.exp(-_inner_exponent(rate, a, lam, x, tol, budget) - v)

    return r * simpson_refine(integrand, 0.0, v_max, tol)


def _moment_integrals(rate: RateFunction, a: float, lam: float, tol: float, budget: _Budget | None = None):
    """(Gamma, Gamma1, Gamma2) on a shared grid at the given a.

    Gamma1 = int 1/(a - lam x) exp(-inner) dx  (so p = 1/Gamma1) and
    Gamma2 = int x/(a - lam x) exp(-inner) dx  (so m = p * Gamma2).
    """
    if lam == 0.0:
        x_max = _tail_cut_lam0(rate, a, tol)
        g = simpson_refine(lambda x: np.exp(-np.asarray(rate.antideriv(x), float) / a), 0.0, x_max, tol)
        g2 = simpson_refine(
            lambda x: x * np.exp(-np.asarray(rate.antideriv(x), float) / a) / a, 0.0, x_max, tol
        )
        return g, g / a, g2
    r = a / lam
    v_max = _tail_cut_v(rate, a, lam, tol, budget)

    def weight(v):
        x = r * (-np.expm1(-v))
        return np.exp(-_inner_exponent(rate, a, lam, x, tol, budget))

    g = r * simpson_refine(lambda v: weight(v) * np.exp(-v), 0.0, v_max, tol)
    g1 = simpson_refine(weight, 0.0, v_max, tol) / lam
    g2 = (r / lam) * simpson_refine(lambda v: weight(v) * (-np.expm1(-v)), 0.0, v_max, tol)
    return g, g1, g2


def solve_a_star(
    lam: float,
    rate: RateFunction,
    root_abs: float = 1e-8,
    quadrature_abs: float = 1e-10,
    density_nodes: int = 2000,
) -> InvariantResult:
    """Find the nontrivial invariant measure by bisecting Gamma(a) = 1.

    Brackets [max(lam, eps), a_hi] with a_hi doubled until Gamma > 1
    (guaranteed since Gamma(lam) < 1 and Gamma(inf) = inf), bisects until
    |Gamma(a) - 1| <= root_abs, then recovers p and m from the companion
    quadratures and cross-checks a* = lam*m + p. All of it shares one
    budget of _INNER_EVALUATIONS inner rate evaluations, past which it
    raises QuadratureError.
    """
    report = validate_assumptions(rate, np.linspace(0.0, 10.0, 41))
    if not report.a1_pass:
        raise ValueError("rate function fails the basic structural assumptions")
    budget = _Budget(_INNER_EVALUATIONS)

    lo = lam if lam > 0 else 0.0  # Gamma(lo) < 1 without evaluation
    hi = max(1.0, 2.0 * lam) if lam > 0 else 1.0
    for _ in range(200):
        if gamma(hi, lam, rate, quadrature_abs, budget) > 1.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the unit root of Gamma")

    a = 0.5 * (lo + hi)
    for _ in range(200):
        val = gamma(a, lam, rate, quadrature_abs, budget)
        if abs(val - 1.0) <= 0.5 * root_abs:  # margin for the finer recheck
            break
        if val > 1.0:
            hi = a
        else:
            lo = a
        a = 0.5 * (lo + hi)
    else:
        raise RuntimeError("bisection for Gamma(a)=1 did not converge (inconsistent quadrature?)")

    g, g1, g2 = _moment_integrals(rate, a, lam, quadrature_abs, budget)
    p = 1.0 / g1
    m = p * g2
    support = m + p / lam if lam > 0 else math.inf

    if lam > 0:
        r = a / lam
        vs = np.linspace(0.0, _tail_cut_v(rate, a, lam, quadrature_abs, budget), density_nodes)
        xs = r * (-np.expm1(-vs))
    else:
        xs = np.linspace(0.0, _tail_cut_lam0(rate, a, quadrature_abs), density_nodes)

    result = InvariantResult(
        lam=lam,
        rate=rate,
        a_star=a,
        p=p,
        m=m,
        support_right=support,
        density_xs=xs,
        density_values=np.empty(0),
        residuals={},
    )
    result.density_values = invariant_density(result, xs, budget)

    # residuals recomputed on a finer independent pass
    tol2 = quadrature_abs * 0.1
    g_f, g1_f, g2_f = _moment_integrals(rate, a, lam, tol2, budget)
    result.residuals = {
        "normalization": abs(p * g1_f - 1.0),
        "self_consistency": abs(_mean_rate_under(result, tol2, budget) - p),
        "fixed_point": abs(a - lam * m - p),
        "gamma_at_root": abs(g - 1.0),
    }
    return result


def _mean_rate_under(result: InvariantResult, tol: float, budget: _Budget | None = None) -> float:
    """int f g, independent quadrature against the converged density."""
    rate, a, lam, p = result.rate, result.a_star, result.lam, result.p
    if lam == 0.0:
        x_max = _tail_cut_lam0(rate, a, tol)
        return simpson_refine(
            lambda x: np.asarray(rate(x), float) * np.exp(-np.asarray(rate.antideriv(x), float) / a),
            0.0,
            x_max,
            tol,
        )
    r = a / lam
    v_max = _tail_cut_v(rate, a, lam, tol, budget)

    def integrand(v):
        x = r * (-np.expm1(-v))
        return np.asarray(rate(x), float) * np.exp(-_inner_exponent(rate, a, lam, x, tol, budget))

    # g(x) dx = (p/lam) exp(-inner) dv under the substitution
    return (p / lam) * simpson_refine(integrand, 0.0, v_max, tol)


def invariant_density(result: InvariantResult, x, budget: _Budget | None = None):
    """Pointwise stationary density; zero outside the support (budget: see solve_a_star)."""
    a, lam, p, rate = result.a_star, result.lam, result.p, result.rate
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x).astype(float)
    out = np.zeros_like(xv)
    if lam == 0.0:
        mask = xv >= 0
        out[mask] = np.exp(-np.asarray(rate.antideriv(xv[mask]), float) / p)
    else:
        r = a / lam
        mask = (xv >= 0) & (xv < r)
        inner = _inner_exponent(rate, a, lam, xv[mask], 1e-12, budget)
        out[mask] = p / (a - lam * xv[mask]) * np.exp(-inner)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class SmoothFunction:
    """Smooth bounded test function with its derivative, for generator checks."""

    value: object
    deriv: object
    name: str = ""


def stationarity_residual(result: InvariantResult, test_functions, tol: float = 1e-10) -> float:
    """Max |generator pairing| over the test functions.

    For each phi, evaluates int [phi(0) - phi(x)] f(x) g(x) dx +
    int phi'(x) (a - lam x) g(x) dx, which vanishes at stationarity.
    """
    rate, a, lam, p = result.rate, result.a_star, result.lam, result.p
    worst = 0.0
    for tf in test_functions:
        phi0 = float(np.asarray(tf.value(0.0), float))
        if lam == 0.0:
            x_max = _tail_cut_lam0(rate, a, tol)

            def integrand(x):
                g = np.exp(-np.asarray(rate.antideriv(x), float) / p)
                jump = (phi0 - np.asarray(tf.value(x), float)) * np.asarray(rate(x), float) * g
                drift = np.asarray(tf.deriv(x), float) * a * g
                return jump + drift

            res = simpson_refine(integrand, 0.0, x_max, tol)
        else:
            r = a / lam
            v_max = _tail_cut_v(rate, a, lam, tol)

            def integrand(v):
                x = r * (-np.expm1(-v))
                w = np.exp(-_inner_exponent(rate, a, lam, x, tol))
                # g(x) dx = (p/lam) w dv and (a - lam x) g(x) dx = p w exp(-v) r dv
                jump = (phi0 - np.asarray(tf.value(x), float)) * np.asarray(rate(x), float) * (p / lam) * w
                drift = np.asarray(tf.deriv(x), float) * p * r * np.exp(-v) * w
                return jump + drift

            res = simpson_refine(integrand, 0.0, v_max, tol)
        worst = max(worst, abs(res))
    return worst
