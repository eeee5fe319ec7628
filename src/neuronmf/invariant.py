"""Invariant probability measures of the limit dynamics.

Besides the trivial point mass at 0, the dynamics admits exactly one
invariant density. With a = p + lam*m (p the stationary mean rate, m the
stationary mean potential) it reads

    g(x) = p / (a - lam x) * exp(-int_0^x f(y)/(a - lam y) dy),   0 <= x < a/lam,

with a/lam = inf when lam = 0, where a is the unique positive root of

    Gamma(a) = int_0^{a/lam} exp(-int_0^x f(y)/(a - lam y) dy) dx = 1.

Every integral is taken in v = int_0^x a/(a - lam y) dy, where
x(v) = (a/lam)(1 - exp(-lam v/a)) (x = v at lam = 0) and the inner exponent
is the running integral of f(x(v))/a: one cumulative pass, the same for
every lam and exponent, gives it, Gamma and the moments on one grid, and
never forms log(a/(a - lam x)), which x rounding to a/lam would spoil.
Gamma increases from Gamma(lam) < 1; an Illinois secant finds its unit root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import RateFunction, validate_assumptions
from .quadrature import QuadratureError, cumulative_trapezoid
from .quadrature import simpson_refine  # noqa: F401  (benchmark/tracing.py wraps this name)

# a pass's first panel count, and its caps on 1.5x growths of V and on doublings
_PANELS = 16
_MAX_GROWTH = 120
_MAX_DOUBLINGS = 14


def _ratio(num, den):
    """num/den, and 1 where den = 0 (the limit of every use below)."""
    return np.divide(num, den, out=np.ones_like(den), where=den > 0)


def _x_of_v(v, s):
    """x(v) = (1 - exp(-s v))/s and x'(v) = exp(-s v), with s = lam/a."""
    z = s * v
    return v * _ratio(-np.expm1(-z), z), np.exp(-z)


@dataclass(frozen=True)
class _Pass:
    """One converged cumulative quadrature at a: the grid and its integrals."""

    v: np.ndarray  # graded nodes on [0, V]
    inner: np.ndarray  # inner exponent at the nodes
    slope: np.ndarray  # its derivative f(x(v))/a, nondecreasing in v
    gamma: float
    gamma1: float
    gamma2: float
    gamma3: float  # int f g / p, which is 1 at any a
    extra: np.ndarray

    def inner_at(self, q):
        """Cubic Hermite interpolant of the inner exponent; linear past V."""
        v, y, d = self.v, self.inner, self.slope
        k = np.clip(np.searchsorted(v, q, side="right") - 1, 0, v.size - 2)
        h = v[k + 1] - v[k]
        t = np.minimum((q - v[k]) / h, 1.0)
        herm = (1 + 2 * t) * (1 - t) ** 2 * y[k] + t * t * (3 - 2 * t) * y[k + 1]
        herm += h * t * (1 - t) * ((1 - t) * d[k] - t * d[k + 1])
        return np.where(q > v[-1], y[-1] + d[-1] * (q - v[-1]), herm)


def _pass(a: float, lam: float, rate: RateFunction, tol: float, extra=lambda x, dx, fx, e: []) -> _Pass:
    """Integrate at a on one graded grid v = V u^2, refined until converged.

    Simpson's rule in u gives the running inner exponent and the outer
    integrals; the grading makes fractional powers of x smooth at 0. V grows
    1.5x until the tails past it are below tol/10, and the panels double
    until every integral moves by less than tol. extra(x, x', f(x),
    exp(-inner)) may return more integrands in v, whose integrals over
    [0, V] come back in _Pass.extra.
    """
    s = lam / a
    big_v, n, prev = 1.0, _PANELS, None
    while True:
        u = np.linspace(0.0, 1.0, n + 1)
        v = big_v * u * u
        x, dx = _x_of_v(v, s)
        fx = np.asarray(rate(x), dtype=float)
        jac = 2.0 * big_v * u  # dv/du
        # running Simpson in u: whole panels at even nodes, a 3-point
        # half-panel rule at odd ones
        h = 1.0 / n
        y = fx * jac / a
        inner = np.zeros(n + 1)
        np.cumsum(h / 3.0 * (y[:-2:2] + 4.0 * y[1::2] + y[2::2]), out=inner[2::2])
        inner[1::2] = inner[:-2:2] + h / 12.0 * (5.0 * y[:-2:2] + 8.0 * y[1::2] - y[2::2])
        e = np.exp(-inner)
        # outer Simpson weights in u times dv/du, which is 0 at node 0
        w = np.where(np.arange(n + 1) % 2, 4.0, 2.0) * jac * (h / 3.0)
        w[-1] *= 0.5
        vals = np.asarray([e * dx, e / a, e * x / a, e * fx / a] + extra(x, dx, fx, e)) @ w
        # tails past V, from inner(v) >= inner(V) + g (v - V) with g = f(x(V))/a
        # and x' <= 1: the int f g tail is exactly exp(-inner(V))
        g = fx[-1] / a
        vals[3] += e[-1]
        tail = e[-1] / g * max(1.0, 1.0 / a, (x[-1] + 1.0 / g) / a)
        if not tail < 0.1 * tol:
            if big_v >= 1.5**_MAX_GROWTH:
                raise QuadratureError(f"quadrature tail above {0.1 * tol} at V={big_v:.4g}")
            big_v, prev = 1.5 * big_v, None
        elif prev is not None and np.max(np.abs(vals - prev)) < tol:
            return _Pass(v, inner, fx / a, *vals[:4], extra=vals[4:])
        elif n >= _PANELS << _MAX_DOUBLINGS:
            raise QuadratureError(f"quadrature did not reach tol={tol} in {n} panels on [0, {big_v:.4g}]")
        else:
            prev, n = vals, 2 * n


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
    grid: _Pass | None = field(default=None, repr=False)

    def density(self, x):
        return invariant_density(self, x)

    def cdf_grid(self):
        """Piecewise-linear cdf representation on the stored grid."""
        return self.density_xs, cumulative_trapezoid(self.density_values, self.density_xs)

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


def gamma(a: float, lam: float, rate: RateFunction, tol: float = 1e-10) -> float:
    """The scalar monotone function whose unit root determines the invariant law."""
    if a <= 0:
        raise ValueError("gamma needs a > 0")
    return _pass(a, lam, rate, tol).gamma


def solve_a_star(
    lam: float,
    rate: RateFunction,
    root_abs: float = 1e-8,
    quadrature_abs: float = 1e-10,
    density_nodes: int = 2000,
) -> InvariantResult:
    """Find the nontrivial invariant measure from the root of Gamma(a) = 1.

    Brackets the root in [lam, a_hi] with a_hi doubled until Gamma > 1
    (Gamma(lam) < 1 and Gamma(inf) = inf), then runs an Illinois secant
    until |Gamma(a) - 1| <= root_abs / 2. At the root m = Gamma2/Gamma1 and
    p = a - lam m; the residuals come from a second pass at a tenth of
    quadrature_abs: normalization |p Gamma1 - 1|, self-consistency
    |int f g - p|, and the fixed point |a - lam m - p| with m and p = 1/Gamma1
    of that pass. Raises QuadratureError when a pass, the bracket or the
    secant fails.
    """
    if not validate_assumptions(rate, np.linspace(0.0, 10.0, 41)).a1_pass:
        raise ValueError("rate function fails the basic structural assumptions")

    # Gamma(lo) - 1 is only known to be negative; -1 seeds the secant
    lo, f_lo = lam, -1.0
    hi = max(1.0, 2.0 * lam)
    for _ in range(200):
        f_hi = gamma(hi, lam, rate, quadrature_abs) - 1.0
        if f_hi > 0.0:
            break
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
    else:
        raise QuadratureError("quadrature found no a with Gamma(a) > 1")

    last = 0.0
    for _ in range(200):
        a = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        val = gamma(a, lam, rate, quadrature_abs) - 1.0
        if abs(val) <= 0.5 * root_abs:  # margin for the finer recheck
            break
        # Illinois: the value at an end kept twice in a row is halved
        if val > 0.0:
            hi, f_hi, f_lo = a, val, 0.5 * f_lo if last > 0.0 else f_lo
        else:
            lo, f_lo, f_hi = a, val, 0.5 * f_hi if last < 0.0 else f_hi
        last = val
    else:
        raise QuadratureError("quadrature secant for Gamma(a) = 1 did not converge")

    grid = _pass(a, lam, rate, quadrature_abs)
    m = grid.gamma2 / grid.gamma1
    p = a - lam * m
    with np.errstate(divide="ignore"):
        support = float(np.divide(a, lam))
    # the output grid ends at lam v/a = 30: past it, nodes of x(v) round together at a/lam
    v_out = grid.v[-1] / max(1.0, lam * grid.v[-1] / (30.0 * a))
    xs = _x_of_v(np.linspace(0.0, v_out, density_nodes), lam / a)[0]
    result = InvariantResult(lam, rate, a, p, m, support, xs, np.empty(0), grid=grid)
    result.density_values = invariant_density(result, xs)

    fine = _pass(a, lam, rate, 0.1 * quadrature_abs)
    result.residuals = {
        "normalization": abs(p * fine.gamma1 - 1.0),
        "self_consistency": abs(p * fine.gamma3 - p),
        "fixed_point": abs(a - lam * fine.gamma2 / fine.gamma1 - 1.0 / fine.gamma1),
        "gamma_at_root": abs(grid.gamma - 1.0),
    }
    return result


def invariant_density(result: InvariantResult, x):
    """Pointwise stationary density; zero outside the support."""
    a, lam, p = result.a_star, result.lam, result.p
    x = np.asarray(x, dtype=float)
    xv = np.atleast_1d(x)
    out = np.zeros(xv.shape)
    mask = (xv >= 0) & (lam * xv < a)
    xm = xv[mask]
    y = (lam / a) * xm
    v = xm * _ratio(-np.log1p(-y), y)
    out[mask] = p / (a - lam * xm) * np.exp(-result.grid.inner_at(v))
    return float(out[0]) if x.ndim == 0 else out


@dataclass(frozen=True)
class SmoothFunction:
    """Smooth bounded test function with its derivative, for generator checks."""

    value: object
    deriv: object
    name: str = ""


def stationarity_residual(result: InvariantResult, test_functions, tol: float = 1e-10) -> float:
    """Max |generator pairing| over the test functions.

    For each phi, evaluates int [phi(0) - phi(x)] f(x) g(x) dx +
    int phi'(x) (a - lam x) g(x) dx, which vanishes at stationarity. In v,
    g dx = (p/a) exp(-inner) dv and (a - lam x) g dx = p exp(-inner) x' dv.
    """
    a, p = result.a_star, result.p

    def pairings(x, dx, fx, e):
        rows = []
        for tf in test_functions:
            phi0 = float(np.asarray(tf.value(0.0), float))
            jump = (phi0 - np.asarray(tf.value(x), float)) * fx * (p / a)
            drift = np.asarray(tf.deriv(x), float) * p * dx
            rows.append((jump + drift) * e)
        return rows

    res = _pass(a, result.lam, result.rate, tol, extra=pairings).extra
    return float(np.max(np.abs(res), initial=0.0))
