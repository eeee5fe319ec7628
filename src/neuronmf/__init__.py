"""Simulation and numerical analysis of a mean-field spiking-neuron system.

Neurons spike at a rate given by their membrane potential, reset to zero,
kick every other neuron by 1/N, and relax toward the population mean. The
package provides an exact event-driven simulator of the N-neuron system,
a deterministic solver for the time-marginals of the large-N limit, the
invariant distributions of that limit, coupling experiments measuring the
1/sqrt(N) convergence rate, and distance/rate-fit utilities.
"""

from .invariant import InvariantResult, SmoothFunction, gamma, invariant_density, solve_a_star, stationarity_residual
from .limitlaw import (
    CoupledStats,
    MarginalSolution,
    MassDriftError,
    NonlinearPath,
    TransportedDensity,
    simulate_coupled,
    simulate_nonlinear_path,
    solve_marginals,
)
from .metrics import RateFit, fit_rate, h_distance, tv_densities, w1_samples, w1_samples_vs_law
from .model import (
    ConfigError,
    DriftSeries,
    InitialLaw,
    OutOfGridError,
    RateFunction,
    SystemConfig,
    Tolerances,
    ValidationReport,
    flow,
    survival,
    validate_assumptions,
)
from .particle import (
    BoundReport,
    EventBudgetExceededError,
    EventLog,
    ParticleState,
    Snapshot,
    apply_spike,
    check_apriori,
    init_system,
    simulate,
)
from .rng import derive_seed, substream

__all__ = [
    "BoundReport",
    "ConfigError",
    "CoupledStats",
    "DriftSeries",
    "EventBudgetExceededError",
    "EventLog",
    "InitialLaw",
    "InvariantResult",
    "MarginalSolution",
    "MassDriftError",
    "NonlinearPath",
    "OutOfGridError",
    "ParticleState",
    "RateFit",
    "RateFunction",
    "Snapshot",
    "SystemConfig",
    "SmoothFunction",
    "Tolerances",
    "TransportedDensity",
    "ValidationReport",
    "apply_spike",
    "check_apriori",
    "derive_seed",
    "fit_rate",
    "flow",
    "gamma",
    "h_distance",
    "init_system",
    "invariant_density",
    "simulate",
    "simulate_coupled",
    "simulate_nonlinear_path",
    "solve_a_star",
    "solve_marginals",
    "stationarity_residual",
    "substream",
    "survival",
    "tv_densities",
    "validate_assumptions",
    "w1_samples",
    "w1_samples_vs_law",
]
