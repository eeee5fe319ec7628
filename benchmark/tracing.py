"""Spans around the calls into each neuronmf layer, from outside the package.

The tracer replaces public functions under every name a module imports them
by (``neuronmf.particle.substream``, ``neuronmf.limitlaw.substream``, ...)
with wrappers that record one span per call: name, parent span, start and
end. Spans stay in memory, in typed arrays, and are written out once, when
the run ends. Counts that only a result can tell (proposals,
spikes, solver steps) are read from the returned objects at the same
boundary.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict

import numpy as np

COUPLED_NS = (50, 100, 200, 400, 800, 1600)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, on_result=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_idx.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, self.end[sid] - self.start[sid], args, kwargs, result)
            return result

        return traced

    def patch(self, sites, name, on_result=None):
        """Bind one wrapper of the function found at sites[0] at every site.

        A site is (module_or_class, attribute) or (dict, key).
        """
        originals = [(holder, attr, _lookup(holder, attr)) for holder, attr in sites]
        wrapper = self.wrap(name, originals[0][2], on_result)
        for holder, attr, original in originals:
            self._patched.append((holder, attr, original))
            _bind(holder, attr, wrapper)

    def restore(self):
        for holder, attr, original in reversed(self._patched):
            _bind(holder, attr, original)
        self._patched.clear()

    # -- summaries ----------------------------------------------------------

    def arrays(self):
        name_idx = np.asarray(self.name_idx, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int32)
        dur = np.asarray(self.end, dtype=float) - np.asarray(self.start, dtype=float)
        return name_idx, parent, dur

    def by_name(self):
        """{name: (calls, total seconds, self seconds)}."""
        name_idx, parent, dur = self.arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name_idx, minlength=k)
        total = np.bincount(name_idx, weights=dur, minlength=k)
        own = np.bincount(name_idx, weights=self_time, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(own[i])) for i, name in enumerate(self.names)}

    def write(self, npz_path, json_path, metrics):
        name_idx, parent, _ = self.arrays()
        np.savez_compressed(
            npz_path,
            names=np.asarray(self.names),
            name_idx=name_idx,
            parent=parent,
            start=np.asarray(self.start, dtype=float),
            end=np.asarray(self.end, dtype=float),
        )
        spans = {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in sorted(self.by_name().items())}
        with open(json_path, "w") as fh:
            json.dump({"spans": spans, "per_layer": metrics}, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _lookup(holder, attr):
    return holder[attr] if isinstance(holder, dict) else getattr(holder, attr)


def _bind(holder, attr, value):
    if isinstance(holder, dict):
        holder[attr] = value
    else:
        setattr(holder, attr, value)


# ---------------------------------------------------------------------------
# What is wrapped, and the counts read from results
# ---------------------------------------------------------------------------


def _on_simulate(tracer, seconds, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    log = result[0]
    tracer.counts["particle.proposals"] += log.proposals
    tracer.counts["particle.spikes"] += log.spikes
    if config.n <= 3:
        tracer.counts[f"particle.n{config.n}.calls"] += 1
        tracer.counts[f"particle.n{config.n}.s"] += seconds


def _on_coupled(tracer, seconds, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    key = f"coupled.lam{config.lam:g}.n{config.n}"
    tracer.counts[key + ".calls"] += 1
    tracer.counts[key + ".s"] += seconds


def _requested_intervals(config, dt, snapshot_times):
    # the grid solve_marginals is asked for: horizon/dt steps plus the snapshot times
    horizon = config.horizon
    dt = dt or config.dt
    k = max(2, int(round(horizon / dt)))
    grid = np.union1d(np.linspace(0.0, horizon, k + 1), np.asarray(sorted(set(map(float, snapshot_times))), float))
    return int(np.sum(np.diff(grid) > 1e-9 * dt))


def _on_solve(tracer, seconds, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    dt = args[1] if len(args) > 1 else kwargs.get("dt")
    snaps = args[2] if len(args) > 2 else kwargs.get("snapshot_times", ())
    steps = len(result.times) - 1
    tracer.counts["limitlaw.solver_steps"] += steps
    tracer.counts["limitlaw.solver_bisected_steps"] += steps - _requested_intervals(config, dt, snaps)


def install(tracer: Tracer):
    """Wrap the layers of the neuronmf that workloads.py imported."""
    import neuronmf as nm
    from neuronmf import cli, rng
    from neuronmf import invariant as inv
    from neuronmf import limitlaw as ll
    from neuronmf import metrics as met
    from neuronmf import model as mod
    from neuronmf import particle as par
    from neuronmf import quadrature as quad

    tracer.patch([(rng, "substream"), (par, "substream"), (ll, "substream"), (nm, "substream")], "rng.substream")
    tracer.patch([(par, "simulate"), (cli, "simulate"), (nm, "simulate")], "particle.simulate", _on_simulate)
    tracer.patch(
        [(ll, "simulate_coupled"), (cli, "simulate_coupled"), (nm, "simulate_coupled")],
        "limitlaw.simulate_coupled",
        _on_coupled,
    )
    tracer.patch(
        [(met, "w1_samples_vs_law"), (ll, "w1_samples_vs_law"), (nm, "w1_samples_vs_law")], "metrics.w1_samples_vs_law"
    )
    tracer.patch([(ll.TransportedDensity, "cdf_grid")], "limitlaw.cdf_grid")
    tracer.patch(
        [(ll, "solve_marginals"), (cli, "solve_marginals"), (nm, "solve_marginals")], "limitlaw.solve_marginals", _on_solve
    )
    tracer.patch([(mod, "survival"), (cli, "survival"), (nm, "survival")], "model.survival")
    tracer.patch([(inv, "solve_a_star"), (cli, "solve_a_star"), (nm, "solve_a_star")], "invariant.solve_a_star")
    tracer.patch([(inv, "gamma"), (nm, "gamma")], "invariant.gamma")
    tracer.patch([(quad, "simpson_refine"), (inv, "simpson_refine"), (mod, "simpson_refine")], "quadrature.simpson_refine")
    # the CLI dispatches through its _COMMANDS table, so the table entries are wrapped too
    for command, fn_name in [
        ("solve-limit", "cmd_solve_limit"),
        ("equilibrium", "cmd_equilibrium"),
        ("invariant", "cmd_invariant"),
        ("chaos", "cmd_chaos"),
    ]:
        tracer.patch([(cli, fn_name), (cli._COMMANDS, command)], "cli." + fn_name[4:])
    for writer in ("_write_csv", "_write_json", "_write_timing"):
        tracer.patch([(cli, writer)], "cli.write")


PER_LAYER_UNITS = {
    "rng.substream_calls": ("count", "lower"),
    "rng.substream_s": ("s", "lower"),
    "particle.simulate_calls": ("count", "lower"),
    "particle.simulate_s": ("s", "lower"),
    "particle.simulate_us_per_call.n1": ("us", "lower"),
    "particle.simulate_us_per_call.n2": ("us", "lower"),
    "particle.simulate_us_per_call.n3": ("us", "lower"),
    "particle.proposals": ("count", "lower"),
    "particle.spikes": ("count", "higher"),
    "particle.acceptance_ratio": ("ratio", "higher"),
    "particle.us_per_proposal": ("us", "lower"),
    "limitlaw.simulate_coupled_calls": ("count", "lower"),
    "limitlaw.simulate_coupled_s": ("s", "lower"),
    **{f"limitlaw.simulate_coupled_ms.lam{lam}.n{n}": ("ms", "lower") for lam in (0, 1) for n in COUPLED_NS},
    "metrics.w1_samples_vs_law_calls": ("count", "lower"),
    "metrics.w1_samples_vs_law_s": ("s", "lower"),
    "limitlaw.cdf_grid_s": ("s", "lower"),
    "limitlaw.solve_marginals_calls": ("count", "lower"),
    "limitlaw.solve_marginals_s": ("s", "lower"),
    "limitlaw.solver_steps": ("count", "lower"),
    "limitlaw.solver_bisected_steps": ("count", "lower"),
    "limitlaw.us_per_solver_step": ("us", "lower"),
    "model.survival_calls": ("count", "lower"),
    "model.survival_s": ("s", "lower"),
    "cli.solve_limit_s": ("s", "lower"),
    "cli.equilibrium_s": ("s", "lower"),
    "cli.invariant_s": ("s", "lower"),
    "cli.chaos_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "invariant.solve_a_star_calls": ("count", "lower"),
    "invariant.solve_a_star_s": ("s", "lower"),
    "invariant.gamma_calls": ("count", "lower"),
    "invariant.gamma_s": ("s", "lower"),
    "invariant.ms_per_gamma": ("ms", "lower"),
    "quadrature.simpson_refine_calls": ("count", "lower"),
    "quadrature.simpson_refine_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_metrics(tracer: Tracer, rounds: int, overhead_s: float | None) -> dict:
    """Per-layer metrics per traced round; a layer the workload never calls reads 0.

    overhead_s is None when an operation never succeeded; it is then left out.
    """
    spans = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0] / rounds

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1] / rounds

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    values = {
        "rng.substream_calls": calls("rng.substream"),
        "rng.substream_s": total("rng.substream"),
        "particle.simulate_calls": calls("particle.simulate"),
        "particle.simulate_s": total("particle.simulate"),
        "particle.proposals": counts["particle.proposals"] / rounds,
        "particle.spikes": counts["particle.spikes"] / rounds,
        "particle.acceptance_ratio": ratio(counts["particle.spikes"], counts["particle.proposals"]),
        "particle.us_per_proposal": ratio(total("particle.simulate"), counts["particle.proposals"] / rounds, 1e6),
        "limitlaw.simulate_coupled_calls": calls("limitlaw.simulate_coupled"),
        "limitlaw.simulate_coupled_s": total("limitlaw.simulate_coupled"),
        "metrics.w1_samples_vs_law_calls": calls("metrics.w1_samples_vs_law"),
        "metrics.w1_samples_vs_law_s": total("metrics.w1_samples_vs_law"),
        "limitlaw.cdf_grid_s": total("limitlaw.cdf_grid"),
        "limitlaw.solve_marginals_calls": calls("limitlaw.solve_marginals"),
        "limitlaw.solve_marginals_s": total("limitlaw.solve_marginals"),
        "limitlaw.solver_steps": counts["limitlaw.solver_steps"] / rounds,
        "limitlaw.solver_bisected_steps": counts["limitlaw.solver_bisected_steps"] / rounds,
        "limitlaw.us_per_solver_step": ratio(
            total("limitlaw.solve_marginals"), counts["limitlaw.solver_steps"] / rounds, 1e6
        ),
        "model.survival_calls": calls("model.survival"),
        "model.survival_s": total("model.survival"),
        "cli.solve_limit_s": total("cli.solve_limit"),
        "cli.equilibrium_s": total("cli.equilibrium"),
        "cli.invariant_s": total("cli.invariant"),
        "cli.chaos_s": total("cli.chaos"),
        "cli.write_s": total("cli.write"),
        "invariant.solve_a_star_calls": calls("invariant.solve_a_star"),
        "invariant.solve_a_star_s": total("invariant.solve_a_star"),
        "invariant.gamma_calls": calls("invariant.gamma"),
        "invariant.gamma_s": total("invariant.gamma"),
        "invariant.ms_per_gamma": ratio(total("invariant.gamma"), calls("invariant.gamma"), 1e3),
        "quadrature.simpson_refine_calls": calls("quadrature.simpson_refine"),
        "quadrature.simpson_refine_s": total("quadrature.simpson_refine"),
        "trace.overhead_s": overhead_s,
    }
    for n in (1, 2, 3):
        values[f"particle.simulate_us_per_call.n{n}"] = ratio(counts[f"particle.n{n}.s"], counts[f"particle.n{n}.calls"], 1e6)
    for lam in (0, 1):
        for n in COUPLED_NS:
            key = f"coupled.lam{lam}.n{n}"
            values[f"limitlaw.simulate_coupled_ms.lam{lam}.n{n}"] = ratio(counts[key + ".s"], counts[key + ".calls"], 1e3)
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, (unit, _) in PER_LAYER_UNITS.items()
        if values[name] is not None
    }
