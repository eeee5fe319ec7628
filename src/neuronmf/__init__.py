"""Simulation and numerical analysis of a mean-field spiking-neuron system.

Neurons spike at a rate given by their membrane potential, reset to zero,
kick every other neuron by 1/N, and relax toward the population mean. The
package provides an exact event-driven simulator of the N-neuron system,
a deterministic solver for the time-marginals of the large-N limit, the
invariant distributions of that limit, coupling experiments measuring the
1/sqrt(N) convergence rate, and distance/rate-fit utilities.
"""

from .invariant import InvariantResult, gamma, invariant_density, solve_a_star
from .limitlaw import (
    CoupledStats,
    MarginalSolution,
    MassDriftError,
    TransportedDensity,
    simulate_coupled,
    solve_marginals,
)
from .metrics import RateFit, fit_rate, h_distance, tv_densities, w1_samples_vs_law
from .model import (
    ConfigError,
    DriftSeries,
    InitialLaw,
    OutOfGridError,
    RateFunction,
    SystemConfig,
    Tolerances,
    flow,
    survival,
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
from .quadrature import QuadratureError
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
    "OutOfGridError",
    "ParticleState",
    "QuadratureError",
    "RateFit",
    "RateFunction",
    "Snapshot",
    "SystemConfig",
    "Tolerances",
    "TransportedDensity",
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
    "solve_a_star",
    "solve_marginals",
    "substream",
    "survival",
    "tv_densities",
    "w1_samples_vs_law",
]
