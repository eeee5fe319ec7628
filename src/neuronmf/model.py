"""Core model ingredients shared by the simulators and solvers.

Holds the spiking-rate functions, whose constructor is the one check of
assumption A1 (f(0) = 0, f nondecreasing and positive on (0, inf)), the
initial laws (their quantile, the engines' one sampling rule, and the
marginal solver's nodes), the run configuration, and, for a given drift
series a_u, the integral I(t) = int_0^t exp(-lam (t-u)) a_u du of the
deterministic inter-spike flow

    phi_{s,t}(x) = exp(-lam (t-s)) x + int_s^t exp(-lam (t-u)) a_u du
                 = exp(-lam (t-s)) (x - I(s)) + I(t)

together with the no-spike survival kernel

    kappa_{s,t}(x) = exp(- int_s^t f(phi_{s,u}(x)) du).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import QuadratureError, cumulative_trapezoid
from .quadrature import simpson_refine  # noqa: F401  (benchmark/tracing.py wraps this name)


class ConfigError(ValueError):
    """Invalid model or experiment configuration."""


# ---------------------------------------------------------------------------
# Rate functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFunction:
    """Spiking intensity f(x) = sum of c * x**e over its (e, c) terms.

    Exponents are finite and >= 1, coefficients finite and >= 0 with one
    > 0 (zero terms are dropped), so f(0)=0, f nondecreasing and convex:
    assumption A1 holds for every rate this constructor accepts.
    The two constructors keep their arguments for describe():

    * ``power``:      f(x) = c * x**xi
    * ``polynomial``: f(x) = sum_k coeffs[k] * x**(k+1)
    """

    terms: tuple
    description: dict = field(compare=False)

    def __post_init__(self):
        if not all(math.isfinite(e) and e >= 1 and math.isfinite(c) and c >= 0 for e, c in self.terms):
            raise ConfigError("rate terms need finite exponents >= 1 and finite coefficients >= 0")
        if not any(c > 0 for _, c in self.terms):
            raise ConfigError("rate must be positive somewhere")
        object.__setattr__(self, "terms", tuple((e, c) for e, c in self.terms if c))

    @staticmethod
    def power(c: float, xi: float) -> "RateFunction":
        c, xi = float(c), float(xi)
        return RateFunction(((xi, c),), {"kind": "power", "c": c, "xi": xi})

    @staticmethod
    def polynomial(coeffs) -> "RateFunction":
        coeffs = [float(c) for c in coeffs]
        return RateFunction(tuple(enumerate(coeffs, 1)), {"kind": "polynomial", "coeffs": coeffs})

    def __call__(self, x):
        """f(x), the terms summed in order.

        Each term is c * x, x * x, c * (x * x) or c * np.power(x, e). A term
        1.0 * x is x itself (the product is exact), so f(x) = x returns its
        argument.
        """
        total = None
        for e, c in self.terms:  # x * x rounds like np.power(x, 2); x * x * x would not round like np.power(x, 3)
            if e == 1:
                term = x if c == 1.0 else c * x
            else:  # one expression, so numpy can multiply the temporary x * x or x**e by c in place
                term = (x * x if c == 1.0 else c * (x * x)) if e == 2 else c * np.power(x, e)
            total = term if total is None else total + term
        return total

    def deriv(self, x):
        """f'(x), finite at 0 since every exponent is >= 1."""
        return sum(c if e == 1 else e * c * np.power(x, e - 1) for e, c in self.terms)

    def describe(self) -> dict:
        return copy.deepcopy(self.description)


# ---------------------------------------------------------------------------
# Initial laws
# ---------------------------------------------------------------------------


_TAIL_MASS = 1e-10  # initial-law mass the marginal solver's nodes leave out


@dataclass(eq=False)
class InitialLaw:
    """Law of the initial potential: its quantile and the marginal solver's nodes.

    Kinds: ``point_mass`` (atom at x0 >= 0), ``exponential`` (rate > 0),
    ``truncated_density`` (piecewise-linear density on [0, xs[-1]],
    renormalized), with every parameter finite. Its moments are taken by
    the marginal solver, on the nodes of solver_nodes.
    """

    kind: str
    x0: float = 0.0
    rate: float = 1.0
    xs: np.ndarray | None = None
    density_values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "point_mass":
            if not 0 <= self.x0 < math.inf:
                raise ConfigError("point mass must sit on [0, inf)")
        elif self.kind == "exponential":
            if not 0 < self.rate < math.inf:
                raise ConfigError("exponential initial law needs a finite rate > 0")
        elif self.kind == "truncated_density":
            xs = np.asarray(self.xs, dtype=float)
            vals = np.asarray(self.density_values, dtype=float)
            if xs.ndim != 1 or xs.size < 2 or xs.shape != vals.shape:
                raise ConfigError("truncated density needs matching 1-d grids")
            if not (np.isfinite(xs).all() and np.isfinite(vals).all()):
                raise ConfigError("truncated density grids must be finite")
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

    # -- sampling and solver nodes ------------------------------------------

    def quantile(self, u) -> np.ndarray:
        """The inverse cdf at uniforms u in [0, 1): the one sampling rule of the law."""
        u = np.asarray(u, dtype=float)
        if self.kind == "point_mass":
            return np.full(u.shape, self.x0)
        if self.kind == "exponential":
            return np.log1p(-u) / -self.rate
        return np.interp(u, self._cdf / self._cdf[-1], self.xs)

    def solver_nodes(self, n_nodes: int):
        """Discretization (xs, density values, atoms) used by the marginal solver.

        Continuous kinds are truncated where the remaining mass is below
        _TAIL_MASS and renormalized on the returned grid, so the discrete
        trapezoid mass is exactly 1.
        """
        if self.kind == "point_mass":
            return np.empty(0), np.empty(0), [(self.x0, 1.0)]
        if self.kind == "exponential":
            x_max = -math.log(_TAIL_MASS) / self.rate
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


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tolerances:
    mass_abs: float = 1e-4
    dt: float = 0.0  # 0 means horizon / 1000

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.mass_abs, self.dt or 1.0)):
            raise ConfigError("tolerances must be positive and finite")


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
        if not 0 <= self.lam < math.inf:
            raise ConfigError("lam must be finite and >= 0")
        if not 0 < self.horizon < math.inf:
            raise ConfigError("horizon must be finite and > 0")
        if self.tolerances.dt and self.tolerances.dt >= self.horizon:
            raise ConfigError("dt must be smaller than the horizon")

    @property
    def dt(self) -> float:
        return self.tolerances.dt or 1e-3 * self.horizon

    def check_times(self, times) -> np.ndarray:
        """Any iterable of times as a float array, each in [0, horizon + 1e-12]; the caller orders them."""
        times, top = [float(t) for t in times], self.horizon + 1e-12
        if not all(0.0 <= t <= top for t in times):  # NaN fails both
            raise ConfigError("snapshot times must be finite and lie in [0, horizon]")
        return np.array(times)


# ---------------------------------------------------------------------------
# Drift series, flow and survival
# ---------------------------------------------------------------------------


class OutOfGridError(ValueError):
    """Time range not covered by the drift grid."""


@dataclass(eq=False)
class DriftSeries:
    """Piecewise-linear drift a_t >= 0 on a time grid covering [0, T].

    Immutable after construction; its flow integrals, built lazily once per
    lam, are pure functions of the data and safe to share across threads.
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

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def _check_range(self, s: float, t: float):
        if not (self.t0 - 1e-12 <= s <= t <= self.t1 + 1e-12):
            raise OutOfGridError(f"[{s}, {t}] outside drift grid [{self.t0}, {self.t1}]")

    def integral(self, lam: float) -> "FlowIntegral":
        """The flow integral at lam, built once per lam and cached."""
        lam = float(lam)
        cached = self._flow_cache.get(lam)
        if cached is None:
            cached = self._flow_cache[lam] = FlowIntegral(self.times, self.a, lam)
        return cached


# phi(z) = (z - 1 + e^{-z})/z^2 = sum_n (-z)^n/(n + 2)! is summed from its first
# nine terms below _PHI_CUT, where the closed form cancels (remainder < 3e-17)
_PHI_CUT = 0.1
_PHI_SERIES = tuple((-1) ** n / math.factorial(n + 2) for n in range(8, -1, -1))


def _phi(z):
    small = np.minimum(z, _PHI_CUT)
    series = 0.0
    for c in _PHI_SERIES:
        series = series * small + c
    big = np.maximum(z, _PHI_CUT)
    return np.where(z < _PHI_CUT, series, (1.0 + np.expm1(-big) / big) / big)


class FlowIntegral:
    """I(t) = int_{t_0}^t exp(-lam (t - u)) a_u du on a drift's own segments: at(t) for one t, rows(t) for an array.

    Exact for the piecewise-linear drift: over the first h of a segment that
    starts at t_lo with a = a_lo and rises by r per unit time, with z = lam h,
    I(t_lo + h) = e^{-z} I(t_lo) + a_lo (1 - e^{-z})/lam + r h^2 phi(z). At
    lam = 0 the increment is 3-point Simpson, exact for a linear integrand.
    """

    def __init__(self, times: np.ndarray, a: np.ndarray, lam: float):
        self.lam = lam
        self.t_end = float(times[-1])
        self.a_max = float(a.max())
        self.inner = times[1:-1]
        h, rise = np.diff(times), np.diff(a)
        if lam == 0.0:
            nodes = np.cumsum(h / 6.0 * (a[:-1] + 4.0 * (0.5 * (a[:-1] + a[1:])) + a[1:]))
        else:
            acc, nodes = 0.0, []
            for decay, grow in zip(np.exp(-lam * h).tolist(), self._grow(h, a[:-1], rise, h).tolist()):
                acc = acc * decay + grow
                nodes.append(acc)
        # per segment: start, I there, a there, a's rise over it, its length
        self.segments = np.stack([times[:-1], np.concatenate([[0.0], nodes[:-1]]), a[:-1], rise, h])

    def _grow(self, h, a_lo, rise, seg):
        """I(t_lo + h) - e^{-lam h} I(t_lo) in a segment of length seg, for lam > 0."""
        z = self.lam * h
        return a_lo * -np.expm1(-z) / self.lam + rise * (h / seg) * h * _phi(z)

    def rows(self, t: np.ndarray) -> np.ndarray:
        t0, node, a_lo, rise, seg = self.segments.take(self.inner.searchsorted(t, side="right"), axis=1)
        h = t - t0
        if self.lam == 0.0:
            frac = h / seg
            return node + h / 6.0 * (a_lo + 4.0 * (a_lo + rise * 0.5 * frac) + (a_lo + rise * frac))
        return node * np.exp(-self.lam * h) + self._grow(h, a_lo, rise, seg)

    def at(self, t: float) -> float:
        return float(self.rows(t))


# largest temporary of the survival quadrature, in doubles (nodes, or nodes x start points)
_SURVIVAL_CHUNK = 1 << 15
_SURVIVAL_ABS = 1e-8  # absolute tolerance of the survival exponent


def survival(s, t: float, x, rate: RateFunction, lam: float, drift: DriftSeries):
    """No-spike probability kappa_{s,t}(x) along the flow; s and x broadcast.

    All start points (s_j, x_j) are integrated in one pass of composite
    Simpson over [min s, t], cut into segments at the drift-grid nodes (the
    integrand is smooth inside segments but only C^1 across them) and at
    the start times; start j sums the segments right of s_j. Panels are
    doubled in every segment at once until no exponent changes by
    _SURVIVAL_ABS or more. A doubling evaluates only the new midpoints, in
    chunks of at most _SURVIVAL_CHUNK values, so memory stays bounded
    however fine the panels.
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
    fi = drift.integral(lam)
    i_s = fi.rows(edges)[k_start]

    def sweep(acc, count, nodes):
        """acc[:, j] += sum of w f(phi_{s_j, u}(x_j)) over the nodes of the segments start j sums.

        nodes(idx) gives the segment k, the fraction into it and the weight
        rows w of the nodes idx (ascending in k) out of count.
        """
        for b0 in range(0, count, _SURVIVAL_CHUNK):
            k, frac, w = nodes(np.arange(b0, min(b0 + _SURVIVAL_CHUNK, count)))
            u = edges[k] + seg[k] * frac
            iu = fi.rows(u)
            runs = np.concatenate([[0], np.flatnonzero(np.diff(group[k])) + 1, [k.size]])
            for lo, hi in zip(runs[:-1].tolist(), runs[1:].tolist()):
                g = group[k[lo]]
                n = int(n_act[g])
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
        if np.max(np.abs(cur - prev)) < _SURVIVAL_ABS:
            out = np.empty(s_arr.size)
            out[order] = np.exp(-cur)
            out = out.reshape(shape)
            return float(out) if out.ndim == 0 else out
        m *= 2
    raise QuadratureError("survival quadrature did not converge")
