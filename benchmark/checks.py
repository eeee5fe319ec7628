"""Correctness checks of the benchmark, computed apart from neuronmf.

Every check takes outputs already parsed into plain numbers and arrays and
returns a list of problems (empty when the outputs pass). None of them calls
into neuronmf: slopes, quadratures, compensators, KS tests and invariant
roots are all recomputed here, and scipy is imported only inside the checks
that need it, so that it stays out of the measured peak memory.
"""

from __future__ import annotations

import math

import numpy as np

SLOPE_BAND = (-0.65, -0.35)  # the paper's 1/sqrt(N) rate, as in the chaos command
R2_MIN = 0.9
COMPENSATOR_SIGMAS = 4.0
KS_LEVEL = 0.01
A_STAR_ABS = 1e-6
BOUNDARY_REL = 1e-3
TV_FINAL_MAX = 0.05
NON_EXTINCTION_FLOOR = 0.01


def loglog_fit(n, values):
    """Least-squares slope and r^2 of log(values) against log(n)."""
    x = np.log(np.asarray(n, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    dx = x - x.mean()
    dy = y - y.mean()
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    resid = dy - slope * dx
    ss_tot = float(np.sum(dy * dy))
    r2 = 1.0 - float(np.sum(resid * resid)) / ss_tot if ss_tot > 0 else 0.0
    return slope, r2


def check_chaos_curve(label, n, columns):
    """Each column of chaos_curve.csv decays like N^(-1/2)."""
    problems = []
    for name, values in columns.items():
        values = np.asarray(values, dtype=float)
        if values.size < 3 or np.any(values <= 0) or not np.all(np.isfinite(values)):
            problems.append(f"{label} {name}: need >= 3 positive finite values, got {values.tolist()}")
            continue
        slope, r2 = loglog_fit(n, values)
        if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1] or r2 < R2_MIN:
            problems.append(f"{label} {name}: slope {slope:.3f} r2 {r2:.3f} outside {SLOPE_BAND}, r2 >= {R2_MIN}")
    return problems


def linear_rate_compensator(n, horizon, initial_values, spike_times, pre_potentials):
    """int_0^T N xbar(t) dt for f(x) = x, from one event log alone.

    With f(x) = x the total intensity is N * xbar. The drift toward the mean
    leaves xbar unchanged, and a spike from potential x_pre moves it by
    ((N-1)/N - x_pre)/N, so N * xbar is piecewise constant between spikes.
    """
    xbar = float(np.mean(initial_values))
    total = 0.0
    t_prev = 0.0
    for t, x_pre in zip(spike_times, pre_potentials):
        total += n * xbar * (t - t_prev)
        xbar += ((n - 1) / n - x_pre) / n
        t_prev = t
    return total + n * xbar * (horizon - t_prev)


def check_compensator(spikes, compensator):
    """Total spike count within COMPENSATOR_SIGMAS standard deviations.

    The count minus its compensator is a martingale whose variance is the
    expected compensator, so the summed compensator is also the variance.
    """
    if compensator <= 0:
        return [f"compensator {compensator} is not positive"]
    z = (spikes - compensator) / math.sqrt(compensator)
    if abs(z) > COMPENSATOR_SIGMAS:
        return [f"{spikes} spikes vs compensator {compensator:.1f}: {z:+.2f} sd"]
    return []


def check_exponential_times(times, rate):
    """One-sample KS test of spike times against Exp(rate) at KS_LEVEL."""
    from scipy import stats

    times = np.asarray(times, dtype=float)
    if times.size == 0 or not np.all(np.isfinite(times)):
        return ["no finite spike times to test"]
    p = float(stats.kstest(times, "expon", args=(0.0, 1.0 / rate)).pvalue)
    if p < KS_LEVEL:
        return [f"KS test of {times.size} spike times against Exp({rate:.4f}): p = {p:.2e} < {KS_LEVEL}"]
    return []


def check_density(label, y, density, atom_masses, t, series, lam, rate, mass_abs):
    """Own quadrature of one written density against series.csv.

    series is (times, a, p, m). Checks unit mass within mass_abs, the drift
    identity a_t = lam m_t + p_t within mass_abs * a_t, and the boundary
    density p_t / a_t within BOUNDARY_REL.
    """
    problems = []
    y = np.asarray(y, dtype=float)
    density = np.asarray(density, dtype=float)
    if y.size < 2 or np.any(np.diff(y) < 0) or y[0] != 0.0:
        return [f"{label}: positions must start at 0 and increase"]
    times, a, p, _ = series
    k = int(np.argmin(np.abs(times - t)))
    if abs(times[k] - t) > 1e-9:
        return [f"{label}: no series row at t={t}"]
    a_t, p_t = a[k], p[k]
    mass = float(np.trapezoid(density, y)) + float(np.sum(atom_masses))
    if abs(mass - 1.0) > mass_abs:
        problems.append(f"{label}: mass {mass:.8f} off by more than {mass_abs}")
    m_t = float(np.trapezoid(y * density, y))
    p_own = float(np.trapezoid(rate(y) * density, y))
    if abs(a_t - lam * m_t - p_own) > mass_abs * a_t:
        problems.append(f"{label}: a_t {a_t:.8f} vs lam m + p = {lam * m_t + p_own:.8f}")
    if a_t <= 0 or abs(density[0] - p_t / a_t) > BOUNDARY_REL * (p_t / a_t):
        problems.append(f"{label}: boundary density {density[0]:.8f} vs p/a {p_t / a_t if a_t > 0 else math.nan:.8f}")
    return problems


def check_tv_decay(times, tv, slack):
    """TV(g(t), g) is non-increasing after t=1 within slack and small at the end."""
    times = np.asarray(times, dtype=float)
    tv = np.asarray(tv, dtype=float)
    order = np.argsort(times)
    times, tv = times[order], tv[order]
    after = tv[times >= 1.0]
    problems = []
    rises = np.nonzero(np.diff(after) > slack)[0]
    if rises.size:
        problems.append(f"TV rises by more than {slack} after t={times[times >= 1.0][rises[0]]}")
    if not tv[-1] < TV_FINAL_MAX:
        problems.append(f"TV({times[-1]}) = {tv[-1]:.4f} is not below {TV_FINAL_MAX}")
    return problems


def check_non_extinction(times, a):
    """inf of the drift a_t over t >= 1 stays above the floor."""
    times = np.asarray(times, dtype=float)
    a = np.asarray(a, dtype=float)
    tail = a[times >= 1.0]
    if tail.size == 0 or not float(np.min(tail)) > NON_EXTINCTION_FLOOR:
        return [f"inf a_t after t=1 is {float(np.min(tail)) if tail.size else math.nan} <= {NON_EXTINCTION_FLOOR}"]
    return []


def power_a_star_lam0(c, xi):
    """Closed-form a* at lam = 0 for f(x) = c x^xi."""
    k = xi + 1.0
    return (c / k) * math.gamma(1.0 + 1.0 / k) ** (-k)


def _inner_exponent(terms, a, lam, x):
    """int_0^x f(y)/(a - lam y) dy for f = sum c_n y^n with integer n.

    With r = a/lam, y^n/(r - y) = r^n/(r - y) - sum_{j<n} r^(n-1-j) y^j, so
    the integral is r^n log(r/(r-x)) - sum_{j<n} r^(n-1-j) x^(j+1)/(j+1),
    all divided by lam.
    """
    if lam == 0.0:
        return sum(c * x ** (n + 1) / (n + 1) for n, c in terms) / a
    r = a / lam
    log_term = -math.log1p(-x / r) if x < r else math.inf
    total = 0.0
    for n, c in terms:
        total += c * (r**n * log_term - sum(r ** (n - 1 - j) * x ** (j + 1) / (j + 1) for j in range(n)))
    return total / lam


def gamma_reference(terms, a, lam):
    """Gamma(a) = int exp(-inner exponent) by scipy quadrature."""
    from scipy import integrate

    upper = a / lam if lam > 0 else math.inf
    val, _ = integrate.quad(
        lambda x: math.exp(-_inner_exponent(terms, a, lam, x)), 0.0, upper, epsabs=1e-13, epsrel=1e-13, limit=200
    )
    return val


def a_star_reference(terms, lam):
    """Root of Gamma(a) = 1 by brentq on the scipy quadrature."""
    from scipy import optimize

    lo = lam * (1.0 + 1e-12) if lam > 0 else 1e-3  # Gamma < 1 just above lam, and as a -> 0 at lam = 0
    hi = max(1.0, 2.0 * lam)
    while gamma_reference(terms, hi, lam) <= 1.0:
        lo, hi = hi, 2.0 * hi
    return optimize.brentq(lambda a: gamma_reference(terms, a, lam) - 1.0, lo, hi, xtol=1e-14, rtol=1e-14)


def check_a_star(label, a_star, reference):
    if not abs(a_star - reference) <= A_STAR_ABS:
        return [f"{label}: a* {a_star:.12f} vs reference {reference:.12f}"]
    return []
