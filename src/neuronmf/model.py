"""Core model ingredients shared by the simulators and solvers.

Holds the spiking-rate functions with the grid check of assumption A1,
the initial laws with samplers and moment accessors, the run
configuration, and the deterministic inter-spike flow

    phi_{s,t}(x) = exp(-lam (t-s)) x + int_s^t exp(-lam (t-u)) a_u du

together with the no-spike survival kernel

    kappa_{s,t}(x) = exp(- int_s^t f(phi_{s,u}(x)) du)

for a given drift series a_u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import QuadratureError, cumulative_trapezoid, simpson_refine


class ConfigError(ValueError):
    """Invalid model or experiment configuration."""


# ---------------------------------------------------------------------------
# Rate functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFunction:
    """Spiking intensity f with its first derivative.

    Two kinds are supported, both satisfying f(0)=0, f nondecreasing and
    convex by construction:

    * ``power``:      f(x) = c * x**xi        (c > 0, xi >= 1)
    * ``polynomial``: f(x) = sum_k coeffs[k] * x**(k+1)   (coeffs >= 0)
    """

    kind: str
    c: float = 1.0
    xi: float = 1.0
    coeffs: tuple = ()

    def __post_init__(self):
        if self.kind == "power":
            if not (self.c > 0):
                raise ConfigError("power rate needs c > 0")
            if not (self.xi >= 1):
                raise ConfigError("power rate needs xi >= 1")
        elif self.kind == "polynomial":
            if len(self.coeffs) == 0:
                raise ConfigError("polynomial rate needs at least one coefficient")
            if any(c < 0 for c in self.coeffs):
                raise ConfigError("polynomial rate coefficients must be nonnegative")
            if not any(c > 0 for c in self.coeffs):
                raise ConfigError("polynomial rate must be positive somewhere")
        else:
            raise ConfigError(f"unknown rate kind {self.kind!r}")

    @staticmethod
    def power(c: float, xi: float) -> "RateFunction":
        return RateFunction(kind="power", c=float(c), xi=float(xi))

    @staticmethod
    def polynomial(coeffs) -> "RateFunction":
        # coeffs[k] multiplies x**(k+1); the constant term is structurally zero
        return RateFunction(kind="polynomial", coeffs=tuple(float(c) for c in coeffs))

    def __call__(self, x):
        if self.kind == "power":
            if self.xi == 1.0:
                return self.c * x
            if self.xi == 2.0:
                return self.c * (x * x)
            return self.c * np.power(x, self.xi)
        out = np.zeros_like(np.asarray(x, dtype=float))
        for k, ck in enumerate(self.coeffs):
            if ck:
                out += ck * np.power(x, k + 1)
        return out if out.ndim else float(out)

    def deriv1(self, x):
        if self.kind == "power":
            if self.xi == 1.0:
                return self.c * np.ones_like(np.asarray(x, dtype=float))
            return self.c * self.xi * np.power(x, self.xi - 1.0)
        out = np.zeros_like(np.asarray(x, dtype=float))
        for k, ck in enumerate(self.coeffs):
            if ck:
                out += ck * (k + 1) * np.power(x, k)
        return out if out.ndim else float(out)

    def describe(self) -> dict:
        if self.kind == "power":
            return {"kind": "power", "c": self.c, "xi": self.xi}
        return {"kind": "polynomial", "coeffs": list(self.coeffs)}


@dataclass
class ValidationReport:
    """Grid-based check of assumption A1 on a rate function.

    A pass means "no counterexample on the supplied grid"; nothing is
    verified symbolically.
    """

    a1_pass: bool
    failures: list = field(default_factory=list)


def validate_assumptions(rate: RateFunction, grid) -> ValidationReport:
    """Check assumption A1 (f(0) = 0, f positive on (0, inf) and nondecreasing) on a sample grid.

    The grid must be non-empty, sorted and contained in [0, 1e3]. Raises
    ConfigError when f(0) != 0 or a sampled derivative is negative; a
    softer failure is reported in the returned ValidationReport.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ConfigError("empty validation grid")
    if np.any(np.diff(grid) < 0) or grid[0] < 0 or grid[-1] > 1e3:
        raise ConfigError("validation grid must be sorted within [0, 1e3]")

    f0 = float(rate(0.0))
    if f0 != 0.0:
        raise ConfigError(f"f(0) = {f0}, expected 0")
    d1 = np.asarray(rate.deriv1(grid), dtype=float)
    if np.any(d1 < 0):
        raise ConfigError("negative derivative sample")

    fv = np.asarray(rate(grid), dtype=float)
    a1 = bool(np.all(fv[grid > 0] > 0) and np.all(np.diff(fv) >= 0))
    return ValidationReport(a1_pass=a1, failures=[] if a1 else ["A1: not positive/nondecreasing on grid"])


# ---------------------------------------------------------------------------
# Initial laws
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class InitialLaw:
    """Law of the initial potential, with sampler and moment accessors.

    Kinds: ``point_mass`` (atom at x0 >= 0), ``exponential`` (rate > 0),
    ``truncated_density`` (piecewise-linear density on [0, cutoff],
    renormalized).
    """

    kind: str
    x0: float = 0.0
    rate: float = 1.0
    xs: np.ndarray | None = None
    density_values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "point_mass":
            if self.x0 < 0:
                raise ConfigError("point mass must sit on [0, inf)")
        elif self.kind == "exponential":
            if not (self.rate > 0):
                raise ConfigError("exponential initial law needs rate > 0")
        elif self.kind == "truncated_density":
            xs = np.asarray(self.xs, dtype=float)
            vals = np.asarray(self.density_values, dtype=float)
            if xs.ndim != 1 or xs.size < 2 or xs.shape != vals.shape:
                raise ConfigError("truncated density needs matching 1-d grids")
            if xs[0] != 0.0 or np.any(np.diff(xs) <= 0):
                raise ConfigError("truncated density grid must start at 0 and increase")
            if np.any(vals < 0):
                raise ConfigError("negative density value")
            total = float(np.trapezoid(vals, xs))
            if total <= 0:
                raise ConfigError("density integrates to 0")
            vals = vals / total
            object.__setattr__(self, "xs", xs)
            object.__setattr__(self, "density_values", vals)
            object.__setattr__(self, "_cdf", cumulative_trapezoid(vals, xs))
        else:
            raise ConfigError(f"unknown initial law kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point_mass(x0: float) -> "InitialLaw":
        return InitialLaw(kind="point_mass", x0=float(x0))

    @staticmethod
    def exponential(rate: float) -> "InitialLaw":
        return InitialLaw(kind="exponential", rate=float(rate))

    @staticmethod
    def from_grid(xs, values) -> "InitialLaw":
        """Truncated density from (x, g0(x)) samples; renormalizes the mass."""
        return InitialLaw(kind="truncated_density", xs=np.asarray(xs, float), density_values=np.asarray(values, float))

    @property
    def cutoff(self) -> float:
        if self.kind == "truncated_density":
            return float(self.xs[-1])
        return math.inf

    # -- sampling ----------------------------------------------------------

    def quantile(self, u) -> np.ndarray:
        """The inverse cdf at uniforms u in [0, 1): the one sampling rule of the law."""
        u = np.asarray(u, dtype=float)
        if self.kind == "point_mass":
            return np.full(u.shape, self.x0)
        if self.kind == "exponential":
            return -np.log1p(-u) / self.rate
        return np.interp(u, self._cdf / self._cdf[-1], self.xs)

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return self.quantile(rng.random(n))

    # -- densities and moments ----------------------------------------------

    def density(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "point_mass":
            raise ConfigError("point mass has no density")
        if self.kind == "exponential":
            return np.where(x >= 0, self.rate * np.exp(-self.rate * x), 0.0)
        out = np.interp(x, self.xs, self.density_values, left=0.0, right=0.0)
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "point_mass":
            return (x >= self.x0).astype(float)
        if self.kind == "exponential":
            return np.where(x >= 0, -np.expm1(-self.rate * x), 0.0)
        return np.interp(x, self.xs, self._cdf / self._cdf[-1], left=0.0, right=1.0)

    def expectation(self, h, tol: float = 1e-10) -> float:
        """E[h(Y0)] by quadrature (exact for a point mass)."""
        if self.kind == "point_mass":
            return float(np.asarray(h(self.x0), dtype=float))
        if self.kind == "truncated_density":
            return simpson_refine(lambda x: np.asarray(h(x), float) * self.density(x), 0.0, self.cutoff, tol)
        # exponential: extend the window until the remainder is negligible
        total = 0.0
        lo, hi = 0.0, 10.0 / self.rate
        for _ in range(40):
            total += simpson_refine(lambda x: np.asarray(h(x), float) * self.density(x), lo, hi, tol)
            tail_scale = abs(float(np.max(np.abs(np.asarray(h(hi), float))))) + 1.0
            if tail_scale * math.exp(-self.rate * hi) < tol:
                return total
            lo, hi = hi, 2.0 * hi
        raise RuntimeError("initial-law moment did not converge")

    def mean(self) -> float:
        if self.kind == "point_mass":
            return self.x0
        if self.kind == "exponential":
            return 1.0 / self.rate
        return float(np.trapezoid(self.xs * self.density_values, self.xs))

    def mean_rate(self, rate: RateFunction, tol: float = 1e-10) -> float:
        """E[f(Y0)]."""
        return self.expectation(rate, tol=tol)

    def mean_rate_sq(self, rate: RateFunction, tol: float = 1e-10) -> float:
        """E[f(Y0)^2]; must be finite for the coupling experiments."""
        return self.expectation(lambda x: np.asarray(rate(x), float) ** 2, tol=tol)

    def solver_nodes(self, n_nodes: int, tail_mass: float = 1e-10):
        """Discretization (xs, density values, atoms) used by the marginal solver.

        Continuous kinds are truncated where the remaining mass is below
        tail_mass and renormalized on the returned grid, so the discrete
        trapezoid mass is exactly 1.
        """
        if self.kind == "point_mass":
            return np.empty(0), np.empty(0), [(self.x0, 1.0)]
        if self.kind == "exponential":
            x_max = -math.log(tail_mass) / self.rate
            xs = np.linspace(0.0, x_max, n_nodes)
            vals = self.rate * np.exp(-self.rate * xs)
        else:
            xs = np.asarray(self.xs, dtype=float)
            vals = np.asarray(self.density_values, dtype=float)
            if xs.size < n_nodes:
                fine = np.linspace(xs[0], xs[-1], n_nodes)
                vals = np.interp(fine, xs, vals)
                xs = fine
        vals = vals / np.trapezoid(vals, xs)
        return xs, vals, []

    def describe(self) -> dict:
        if self.kind == "point_mass":
            return {"kind": "point_mass", "x0": self.x0}
        if self.kind == "exponential":
            return {"kind": "exponential", "rate": self.rate}
        return {"kind": "truncated_density", "cutoff": self.cutoff, "nodes": int(self.xs.size)}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tolerances:
    quadrature_abs: float = 1e-8
    root_abs: float = 1e-8
    mass_abs: float = 1e-4
    dt: float = 0.0  # 0 means horizon / 1000

    def __post_init__(self):
        if self.quadrature_abs <= 0 or self.root_abs <= 0 or self.mass_abs <= 0 or self.dt < 0:
            raise ConfigError("tolerances must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one run: system size, coefficients, horizon, seed."""

    n: int
    lam: float
    rate: RateFunction
    initial: InitialLaw
    horizon: float
    seed: int
    tolerances: Tolerances = Tolerances()

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("need at least one particle")
        if self.lam < 0:
            raise ConfigError("lam must be >= 0")
        if self.horizon <= 0:
            raise ConfigError("horizon must be > 0")
        if self.tolerances.dt and self.tolerances.dt >= self.horizon:
            raise ConfigError("dt must be smaller than the horizon")

    @property
    def dt(self) -> float:
        return self.tolerances.dt or 1e-3 * self.horizon


# ---------------------------------------------------------------------------
# Drift series, flow and survival
# ---------------------------------------------------------------------------


class OutOfGridError(ValueError):
    """Time range not covered by the drift grid."""


@dataclass(eq=False)
class DriftSeries:
    """Piecewise-linear drift a_t >= 0 on a time grid covering [0, T].

    Immutable after construction; the lazily built per-lambda flow cache is
    a pure function of the data and safe to share across threads.
    """

    times: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.a, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != a.shape:
            raise ConfigError("drift needs matching 1-d grids with >= 2 nodes")
        if np.any(np.diff(t) <= 0):
            raise ConfigError("drift grid must be strictly increasing")
        if np.any(a < 0):
            raise ConfigError("drift values must be >= 0")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_flow_cache", {})

    @staticmethod
    def constant(value: float, t1: float, t0: float = 0.0) -> "DriftSeries":
        return DriftSeries(times=np.array([t0, t1]), a=np.array([float(value), float(value)]))

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def value(self, t):
        return np.interp(t, self.times, self.a)

    def _check_range(self, s: float, t: float):
        if not (self.t0 - 1e-12 <= s <= t <= self.t1 + 1e-12):
            raise OutOfGridError(f"[{s}, {t}] outside drift grid [{self.t0}, {self.t1}]")

    @staticmethod
    def _accumulate(t: np.ndarray, a: np.ndarray, lam: float) -> np.ndarray:
        """I at the nodes of (t, a) via per-segment 3-point Simpson.

        Exact for lam = 0 (linear integrand); for lam > 0 the per-segment
        error is O(lam^4 h^5), controlled by refining the grid.
        """
        h = np.diff(t)
        amid = 0.5 * (a[:-1] + a[1:])
        seg = h / 6.0 * (np.exp(-lam * h) * a[:-1] + 4.0 * np.exp(-lam * 0.5 * h) * amid + a[1:])
        decay = np.exp(-lam * h)
        out = np.zeros(t.size)
        acc = 0.0
        for k in range(h.size):
            acc = acc * decay[k] + seg[k]
            out[k + 1] = acc
        return out

    def _fine_grid(self, lam: float, tol: float):
        """(fine times, fine a, I at fine nodes), refined until the node
        integrals change by less than tol between successive halvings."""
        key = (float(lam), float(tol))
        cached = self._flow_cache.get(key)
        if cached is not None:
            return cached
        t = self.times
        a = self.a
        vals = self._accumulate(t, a, lam)
        if lam > 0:
            for _ in range(22):
                t2 = np.empty(2 * t.size - 1)
                t2[0::2] = t
                t2[1::2] = 0.5 * (t[:-1] + t[1:])
                a2 = np.interp(t2, self.times, self.a)
                vals2 = self._accumulate(t2, a2, lam)
                if np.max(np.abs(vals2[0::2] - vals)) < tol:
                    t, a, vals = t2, a2, vals2
                    break
                t, a, vals = t2, a2, vals2
            else:
                raise QuadratureError("flow quadrature did not converge")
        self._flow_cache[key] = (t, a, vals)
        return t, a, vals

    def _integral_to(self, u, lam: float, tol: float):
        """I(u) = int_{t_0}^{u} exp(-lam (u - v)) a_v dv, vectorized in u."""
        ft, fa, nodes = self._fine_grid(lam, tol)
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        idx = np.searchsorted(ft[1:-1], u, side="right")  # segment of u, clipped to the grid
        h = u - ft[idx]
        au = np.interp(u, self.times, self.a)
        amid = np.interp(u - 0.5 * h, self.times, self.a)
        decay = np.exp(-lam * h)
        part = h / 6.0 * (decay * fa[idx] + 4.0 * np.exp(-lam * 0.5 * h) * amid + au)
        out = nodes[idx] * decay + part
        return float(out[0]) if scalar else out

    def flow_integral(self, s, t: float, lam: float, tol: float = 1e-10):
        """int_s^t exp(-lam (t - u)) a_u du, vectorized in s."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        self._check_range(float(np.min(s_arr)), float(t))
        it = self._integral_to(float(t), lam, tol)
        is_ = self._integral_to(s_arr, lam, tol)
        out = it - np.exp(-lam * (float(t) - s_arr)) * is_
        return float(out[0]) if np.ndim(s) == 0 else out


def flow(s, t: float, x, lam: float, drift: DriftSeries, tol: float = 1e-10):
    """Deterministic inter-spike flow phi_{s,t}(x); vectorized in s or x."""
    s_arr = np.asarray(s, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    out = np.exp(-lam * (t - s_arr)) * x_arr + drift.flow_integral(s, t, lam, tol)
    if out.ndim == 0:
        return float(out)
    return out


# largest temporary of the survival quadrature, in doubles (nodes, or nodes x start points)
_SURVIVAL_CHUNK = 1 << 15


def survival(s, t: float, x, rate: RateFunction, lam: float, drift: DriftSeries, tol: float = 1e-8):
    """No-spike probability kappa_{s,t}(x) along the flow; s and x broadcast.

    All start points (s_j, x_j) are integrated in one pass of composite
    Simpson over [min s, t], cut into segments at the drift-grid nodes (the
    integrand is smooth inside segments but only C^1 across them) and at
    the start times; start j sums the segments right of s_j. Panels are
    doubled in every segment at once until no exponent changes by tol or
    more. A doubling evaluates only the new midpoints, in chunks of at most
    _SURVIVAL_CHUNK values, so memory stays bounded however fine the panels.
    """
    s_arr, x_arr = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(x, dtype=float))
    shape = s_arr.shape
    order = np.argsort(s_arr, axis=None, kind="stable")
    s_arr, x_arr = s_arr.ravel()[order], x_arr.ravel()[order]
    if s_arr.size == 0:
        return np.ones(shape)
    drift._check_range(s_arr[0], t)
    drift._check_range(s_arr[-1], t)
    if s_arr[0] == t:
        return 1.0 if not shape else np.ones(shape)

    first = np.flatnonzero(np.append(True, s_arr[1:] != s_arr[:-1]))
    starts = s_arr[first]  # distinct start times, ascending
    n_act = np.append(first[1:], s_arr.size)  # start points (in sorted order) with s_j <= starts[g]
    inner = drift.times[(drift.times > s_arr[0] + 1e-15) & (drift.times < t - 1e-15)]
    edges = np.unique(np.concatenate([starts, inner, [t]]))
    seg = np.diff(edges)
    group = np.searchsorted(starts, edges[:-1], side="right") - 1  # segment k is summed by the first n_act[group[k]]
    k_start = np.searchsorted(edges, s_arr)  # first segment of each start point
    i_s = drift._integral_to(edges, lam, tol)[k_start]

    def sweep(acc, count, nodes):
        """acc[:, j] += sum of w f(phi_{s_j, u}(x_j)) over the nodes of the segments start j sums.

        nodes(idx) gives the segment k, the fraction into it and the weight
        rows w of the nodes idx (ascending in k) out of count.
        """
        for b0 in range(0, count, _SURVIVAL_CHUNK):
            k, frac, w = nodes(np.arange(b0, min(b0 + _SURVIVAL_CHUNK, count)))
            u = edges[k] + seg[k] * frac
            iu = drift._integral_to(u, lam, tol)
            runs = np.concatenate([[0], np.flatnonzero(np.diff(group[k])) + 1, [k.size]])
            for lo, hi in zip(runs[:-1], runs[1:]):
                g = group[k[lo]]
                n = n_act[g]
                r = starts[g]
                # phi_{s_j, u}(x_j) = I(u) + exp(-lam (u - r)) coef_j for s_j <= r <= u
                coef = np.exp(-lam * (r - s_arr[:n])) * (x_arr[:n] - i_s[:n])
                dec = np.exp(-lam * (u[lo:hi] - r))
                step = max(1, _SURVIVAL_CHUNK // n)
                for c0 in range(lo, hi, step):
                    c1 = min(c0 + step, hi)
                    pos = np.multiply.outer(dec[c0 - lo : c1 - lo], coef)
                    pos += iu[c0:c1, None]
                    acc[:, :n] += w[c0:c1].T @ np.asarray(rate(pos), dtype=float)

    # first level, two panels per segment: end points (row 0) and midpoints
    # (row 1). Each edge is weighted by both its segments, which a start
    # point overcounts at its own edge by the segment on the left, where
    # its flow is still at x_j.
    nseg = seg.size
    k1 = np.minimum(np.arange(2 * nseg + 1) // 2, nseg - 1)
    frac1 = 0.5 * (np.arange(2 * nseg + 1) - 2 * k1)  # 0, 1/2 in each segment, then 1 at t
    w1 = np.zeros((2 * nseg + 1, 2))
    w1[:-1:2, 0] = seg
    w1[2:-1:2, 0] += seg[:-1]
    w1[-1, 0] = seg[-1]
    w1[1::2, 1] = seg
    acc = np.zeros((2, s_arr.size))
    sweep(acc, k1.size, lambda idx: (k1[idx], frac1[idx], w1[idx]))
    ends, odds = acc
    inside = (k_start > 0) & (s_arr < t)
    ends[inside] -= seg[k_start[inside] - 1] * np.asarray(rate(x_arr[inside]), dtype=float)
    evens = np.zeros(s_arr.size)  # the same sums over the interior nodes of the previous level
    cur = (ends + 4.0 * odds) / 6.0
    m = 4
    for _ in range(17):
        evens += odds
        half = m // 2
        odds = np.zeros((1, s_arr.size))
        sweep(odds, nseg * half, lambda idx: (idx // half, (2 * (idx % half) + 1) / m, seg[idx // half, None]))
        odds = odds[0]
        prev, cur = cur, (ends + 2.0 * evens + 4.0 * odds) / (3.0 * m)
        if not np.all(np.isfinite(cur)):
            raise QuadratureError("non-finite survival exponent")
        if np.max(np.abs(cur - prev)) < tol:
            out = np.empty(s_arr.size)
            out[order] = np.exp(-cur)
            out = out.reshape(shape)
            return float(out) if out.ndim == 0 else out
        m *= 2
    raise QuadratureError("survival quadrature did not converge")
