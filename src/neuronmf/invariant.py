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
Gamma increases from Gamma(lam) < 1. The same pass integrates dGamma/da
(x, x' and the inner exponent depend on a in closed form), and a Newton
step on log Gamma against log a finds the unit root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import RateFunction
from .quadrature import QuadratureError
from .quadrature import simpson_refine  # noqa: F401  (benchmark/tracing.py wraps this name)

# a pass's first panel count, and its caps on 1.5x growths of V and on doublings
_PANELS = 16
_MAX_GROWTH = 120
_MAX_DOUBLINGS = 14
_LADDER = 8  # rungs of V that _ladder tests per array pass
_DENSITY_NODES = 2000  # nodes of the reported density
ROOT_ABS = 1e-8  # |Gamma(a) - 1| at the root is at most half of it; the CLI gates the residuals on it
_QUAD_ABS = 1e-10  # absolute tolerance of every pass; the residual pass runs at a tenth of it
_MAX_ROOT_PASSES = 200
_MAX_LOG_STEP = 3.0  # cap on one Newton step in log a


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
    dgamma: float  # dGamma/da over [0, V], on the converged grid
    panels: int  # the converged panel count

    def inner_at(self, q):
        """Cubic Hermite interpolant of the inner exponent; linear past V."""
        v, y, d = self.v, self.inner, self.slope
        k = np.clip(np.searchsorted(v, q, side="right") - 1, 0, v.size - 2)
        h = v[k + 1] - v[k]
        t = np.minimum((q - v[k]) / h, 1.0)
        herm = (1 + 2 * t) * (1 - t) ** 2 * y[k] + t * t * (3 - 2 * t) * y[k + 1]
        herm += h * t * (1 - t) * ((1 - t) * d[k] - t * d[k + 1])
        return np.where(q > v[-1], y[-1] + d[-1] * (q - v[-1]), herm)


def _running_simpson(y, h):
    """Running Simpson integral of samples y on a uniform grid of step h:
    whole panels at even nodes, a 3-point half-panel rule at odd ones."""
    out = np.zeros(y.size)
    np.cumsum(h / 3.0 * (y[:-2:2] + 4.0 * y[1::2] + y[2::2]), out=out[2::2])
    out[1::2] = out[:-2:2] + h / 12.0 * (5.0 * y[:-2:2] + 8.0 * y[1::2] - y[2::2])
    return out


def _tail(fx_v: float, e_v: float, x_v: float, a: float) -> float:
    """Bound on the outer integrals past V, from f(x(V)), exp(-inner(V)) and x(V).

    inner(v) >= inner(V) + g (v - V) with g = f(x(V))/a and x' <= 1, so the
    int f g tail is exactly exp(-inner(V)). In Python floats, so a rate that
    underflows gives an infinite tail, not a warning.
    """
    g = fx_v / a
    return e_v / g * max(1.0, 1.0 / a, (x_v + 1.0 / g) / a) if g > 0.0 else math.inf


def _ladder(a: float, lam: float, rate: RateFunction, tol: float) -> float:
    """The first V = 1.5^k at which the 16-panel tail test passes, or the cap rung.

    _pass's loop would search one grid per rung; here _LADDER rungs are
    tested at once, as one (rungs, 17) array. The rungs come from repeated
    1.5 * V and every node takes the loop's operations in the loop's order,
    so each rung's tail is the loop's, bit for bit. The ignore guard hides
    no warning the loop would raise: along a rung x, f(x), dv/du and the
    inner exponent at panel ends are nondecreasing in v, so a rung that
    overflows does so at its last node, where f(x(V)) = inf or inner(V) =
    inf makes the tail 0. That rung passes and is returned, and _pass
    evaluates it again under its own guard; the rungs before it are finite.
    """
    s, h, cap = lam / a, 1.0 / _PANELS, 1.5**_MAX_GROWTH
    u = np.linspace(0.0, 1.0, _PANELS + 1)
    rungs = [1.0]
    while True:
        while len(rungs) < _LADDER:
            rungs.append(1.5 * rungs[-1])
        big_v = np.array(rungs)[:, None]
        with np.errstate(all="ignore"):
            x = _x_of_v(big_v * u * u, s)[0]
            fx = np.asarray(rate(x), dtype=float)
            y = fx * (2.0 * big_v * u) / a
            inner = np.cumsum(h / 3.0 * (y[:, :-2:2] + 4.0 * y[:, 1::2] + y[:, 2::2]), axis=1)[:, -1]
            e_v = np.exp(-inner)
        for v_k, f_k, e_k, x_k in zip(rungs, fx[:, -1].tolist(), e_v.tolist(), x[:, -1].tolist()):
            if _tail(f_k, e_k, x_k, a) < 0.1 * tol or v_k >= cap:  # a NaN tail fails, as in _pass
                return v_k
        rungs = [1.5 * rungs[-1]]


def _pass(a: float, lam: float, rate: RateFunction, tol: float, *, hint: int | None = None) -> _Pass:
    """Integrate at a on one graded grid v = V u^2, refined until converged.

    Simpson's rule in u gives the running inner exponent and the outer
    integrals; the grading makes fractional powers of x smooth at 0. V grows
    1.5x until the tails past it are below tol/10, and the panels double
    until every integral moves by less than tol. dGamma/da is integrated
    once, on the converged grid, and takes no part in the convergence test.

    The search for V at 16 panels runs in _ladder, a few rungs per array
    pass. At each V the nodes, x, x', f(x) and dv/du are built once, at
    max(n, hint) panels, and every coarser level reads them as strided
    views: with n = 16 2^j panels the nodes u = k/n are exact dyadic values,
    shared with every finer grid. A level past that grid, or a V that grows
    after a doubling, builds a fresh one. The hint, a panel count of an
    earlier pass, decides only which arrays are computed, never a value.
    """
    s = lam / a
    big_v, n, prev = _ladder(a, lam, rate, tol), _PANELS, None
    grid_v, size = None, 0  # V and panel count of the fine grid
    while True:
        if big_v != grid_v or n > size:
            grid_v, size = big_v, max(n, hint or n)
            u = np.linspace(0.0, 1.0, size + 1)
            fine_v = big_v * u * u
            fine_x, fine_dx = _x_of_v(fine_v, s)
            fine = (fine_v, fine_x, fine_dx, np.asarray(rate(fine_x), dtype=float), 2.0 * big_v * u)  # dv/du last
        v, x, dx, fx, jac = (arr[:: size // n] for arr in fine)
        h = 1.0 / n
        inner = _running_simpson(fx * jac / a, h)
        with np.errstate(over="ignore"):  # on a coarse grid the half-panel rule can dip far below 0
            e = np.exp(-inner)
        # outer Simpson weights in u times dv/du, which is 0 at node 0
        w = np.where(np.arange(n + 1) % 2, 4.0, 2.0) * jac * (h / 3.0)
        w[-1] *= 0.5
        vals = np.asarray([e * dx, e / a, e * x / a, e * fx / a]) @ w
        e_v = float(e[-1])
        vals[3] += e_v  # the int f g tail past V (see _tail)
        tail = _tail(float(fx[-1]), e_v, float(x[-1]), a)
        finite = all(map(math.isfinite, vals.tolist()))  # a non-finite pass only doubles the panels
        if not tail < 0.1 * tol:
            if big_v >= 1.5**_MAX_GROWTH:
                raise QuadratureError(f"quadrature tail above {0.1 * tol} at V={big_v:.4g}")
            big_v, prev = 1.5 * big_v, None
        elif finite and prev is not None and np.max(np.abs(vals - prev)) < tol:
            break
        elif n >= _PANELS << _MAX_DOUBLINGS:
            raise QuadratureError(f"quadrature did not reach tol={tol} in {n} panels on [0, {big_v:.4g}]")
        else:
            prev, n = (vals if finite else None), 2 * n
    # at fixed v, dx/da = (x - v x')/a and dx'/da = x' v s/a, so the inner
    # exponent's a-derivative is the running integral of (f'(x) (x - v x') - f(x))/a^2
    d_inner = _running_simpson((rate.deriv(x) * (x - v * dx) - fx) * jac / (a * a), h)
    dgamma = float((e * dx * (v * (s / a) - d_inner)) @ w)
    return _Pass(np.ascontiguousarray(v), inner, fx / a, *vals, dgamma=dgamma, panels=n)


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
    gamma_passes: int = 0  # _QUAD_ABS passes of the solve: the root search, whose last pass is the grid

    def density(self, x):
        return invariant_density(self, x)

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


def gamma(a: float, lam: float, rate: RateFunction, full: bool = False, *, hint: int | None = None):
    """The scalar monotone function whose unit root determines the invariant law.

    With full=True, the whole converged pass comes back instead (Gamma,
    dGamma/da and the grid), which is how the root search takes each pass.
    hint is the panel count of an earlier pass (see _pass); it changes no value.
    """
    if a <= 0:
        raise ValueError("gamma needs a > 0")
    grid = _pass(a, lam, rate, _QUAD_ABS, hint=hint)
    return grid if full else grid.gamma


def solve_a_star(lam: float, rate: RateFunction) -> InvariantResult:
    """Find the nontrivial invariant measure from the root of Gamma(a) = 1.

    rate satisfies A1 by construction. Newton's method on log Gamma as a
    function of log a, which is linear for power rates at lam = 0, starts at
    a = lam + 1 and stops once |Gamma(a) - 1| <= ROOT_ABS / 2, every pass to
    _QUAD_ABS; each pass is one gamma(..., full=True) call and gives Gamma
    and dGamma/da. Gamma(lam) < 1 and Gamma increases, so every pass moves
    an end of the bracket (lam, hi), and a step that leaves it bisects it
    instead. Each pass after the first is given the panel count its
    predecessor converged at as a hint, and the residual pass twice the
    root pass's count; a hint only spares arrays (see _pass). The last pass
    is the result's grid. At the root m = Gamma2/Gamma1 and p = a - lam m; the
    residuals come from a second pass at a tenth of _QUAD_ABS: normalization
    |p Gamma1 - 1|, self-consistency |int f g - p|, and the fixed point
    |a - lam m - p| with m and p = 1/Gamma1 of that pass. Raises
    QuadratureError when a pass fails or the root is not reached.
    """
    lo, hi, a, grid = lam, math.inf, lam + 1.0, None
    for passes in range(1, _MAX_ROOT_PASSES + 1):
        grid = gamma(a, lam, rate, full=True, hint=grid and grid.panels)
        g, dg = grid.gamma, grid.dgamma
        if abs(g - 1.0) <= 0.5 * ROOT_ABS:  # margin for the finer recheck
            break
        lo, hi = (a, hi) if g < 1.0 else (lo, a)
        step = -math.log(g) * g / (a * dg) if dg > 0.0 else math.nan
        a_next = a * math.exp(min(max(step, -_MAX_LOG_STEP), _MAX_LOG_STEP))
        if not lo < a_next < hi:  # also a NaN step
            a_next = 2.0 * lo if hi == math.inf else math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        a = a_next
    else:
        if hi == math.inf:
            raise QuadratureError("quadrature found no a with Gamma(a) > 1")
        raise QuadratureError("quadrature secant for Gamma(a) = 1 did not converge")

    m = grid.gamma2 / grid.gamma1
    p = a - lam * m
    with np.errstate(divide="ignore"):
        support = float(np.divide(a, lam))
    # the output grid ends at lam v/a = 30: past it, nodes of x(v) round together at a/lam
    v_out = grid.v[-1] / max(1.0, lam * grid.v[-1] / (30.0 * a))
    xs = _x_of_v(np.linspace(0.0, v_out, _DENSITY_NODES), lam / a)[0]
    result = InvariantResult(lam, rate, a, p, m, support, xs, np.empty(0), grid=grid, gamma_passes=passes)
    result.density_values = invariant_density(result, xs)

    fine = _pass(a, lam, rate, 0.1 * _QUAD_ABS, hint=min(2 * grid.panels, _PANELS << _MAX_DOUBLINGS))
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
