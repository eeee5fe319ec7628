import concurrent.futures
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from neuronmf import DriftSeries, InitialLaw, RateFunction, SystemConfig, simulate_coupled, solve_marginals
from neuronmf import cli, model
from neuronmf.cli import _loidetau_residual, _system_from, main
from neuronmf.model import survival
from neuronmf.rng import derive_seed


def write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    with open(p, "w") as fh:
        json.dump(obj, fh)
    return str(p)


SYSTEM = {
    "n": 50,
    "lambda": 1.0,
    "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
    "initial": {"kind": "exponential", "rate": 1.0},
    "horizon": 1.0,
    "seed": 42,
}


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_command_mismatch(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"command": "invariant", "system": SYSTEM})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_command(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {"system": SYSTEM, "snapshot_times": [1.0]})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_bad_rate_kind(self, tmp_path):
        bad = dict(SYSTEM, rate={"kind": "cubic"})
        cfg = write_cfg(tmp_path, "c.json", {"command": "simulate", "system": bad, "snapshot_times": []})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command,change",
        [
            ("simulate", {"rate": {"kind": "power", "xi": 2}}),
            ("simulate", {"rate": {"kind": "power", "c": "abc", "xi": 2}}),
            ("simulate", {"rate": [1, 2]}),
            ("simulate", {"initial": {"kind": "exponential"}}),
            ("simulate", {"horizon": None}),
            ("simulate", {"rate": {"kind": "polynomial", "coeffs": [math.nan, 1.0]}}),
            ("simulate", {"rate": {"kind": "power", "c": math.inf, "xi": 2}}),
            ("simulate", {"lambda": math.nan}),
            ("simulate", {"lambda": math.inf}),
            ("simulate", {"horizon": math.nan}),
            ("solve-limit", {"horizon": math.nan}),
            ("solve-limit", {"tolerances": {"mass_abs": math.nan}}),
            ("invariant", {"lambda": math.nan}),
            ("invariant", {"rate": {"kind": "power", "c": 1.0}}),
            ("simulate", {"seed": math.inf}),
            ("simulate", {"initial": {"kind": "point_mass", "x0": math.nan}}),
            ("simulate", {"initial": {"kind": "point_mass", "x0": math.inf}}),
            ("simulate", {"initial": {"kind": "exponential", "rate": math.inf}}),
            ("simulate", {"initial": {"kind": "truncated_density", "xs": [0, 1, 2], "values": [1, math.nan, 1]}}),
        ],
    )
    def test_malformed_system_block(self, tmp_path, capsys, command, change):
        cfg = write_cfg(tmp_path, "c.json", {"command": command, "system": dict(SYSTEM, **change), "snapshot_times": []})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "command,key,extra",
        [
            ("simulate", "snapshot_times", {}),
            ("solve-limit", "snapshot_times", {}),
            ("chaos", "snapshot_times", {"n_grid": [10, 20, 40], "replicates": 2}),
            ("equilibrium", "time_grid", {}),
        ],
    )
    def test_non_finite_snapshot_time(self, tmp_path, capsys, command, key, extra, bad):
        cfg = write_cfg(tmp_path, "c.json", {"command": command, "system": SYSTEM, key: [0.5, bad], **extra})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err

    @pytest.mark.parametrize(
        "command,cfg",
        [
            ("equilibrium", {"system": dict(SYSTEM, **{"lambda": 0.0}), "time_grid": []}),
            ("equilibrium", {"system": dict(SYSTEM, horizon=0.5)}),
            ("equilibrium", {"system": SYSTEM, "floor": "x"}),
            ("chaos", {"system": SYSTEM, "n_grid": [10, 20, 40], "replicates": 2}),
            ("chaos", {"system": SYSTEM, "snapshot_times": [0.5], "n_grid": [10, 20, 40], "replicates": 2,
                       "slope_band": 3}),
            ("chaos", {"system": SYSTEM, "snapshot_times": [0.5], "n_grid": "abc", "replicates": 2}),
            ("simulate", {"system": SYSTEM, "event_budget": "x"}),
            ("simulate", {"system": SYSTEM, "event_budget": math.inf}),
            ("simulate", {"system": SYSTEM, "snapshot_times": "ab"}),
            ("simulate", {"snapshot_times": [0.5]}),
            ("chaos", {"system": SYSTEM, "snapshot_times": [0.5], "n_grid": [10, 20, 40], "replicates": 2,
                       "r_squared_min": math.nan}),
            ("chaos", {"system": SYSTEM, "snapshot_times": [0.5], "n_grid": [10, 20, 40], "replicates": 2,
                       "slope_band": [-0.65, math.nan]}),
            ("chaos", {"system": SYSTEM, "snapshot_times": [0.5], "n_grid": [10, 20, 40], "replicates": 2,
                       "slope_band": [-math.inf, -0.35]}),
            ("equilibrium", {"system": SYSTEM, "floor": math.nan}),
            ("equilibrium", {"system": SYSTEM, "floor": -math.inf}),
        ],
    )
    def test_malformed_command_keys(self, tmp_path, capsys, command, cfg):
        # keys outside the system block, and a missing system block, fail as config errors before any run
        path = write_cfg(tmp_path, "c.json", {"command": command, **cfg})
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["invariant"], "the following arguments are required: --config"),
            (["invariant", "--config", "c.json", "--threads", "x"], "argument --threads: invalid int value: 'x'"),
        ],
    )
    def test_malformed_command_line(self, capsys, argv, message):
        # argparse's usage lines are not printed: one line, as for every other non-zero exit
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["invariant", "--help"])
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: neuronmf invariant") and captured.err == ""

    def test_short_n_grid(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {"command": "chaos", "system": SYSTEM, "snapshot_times": [0.5], "n_grid": [10, 20], "replicates": 2},
        )
        assert main(["chaos", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_zero_replicates(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {"command": "chaos", "system": SYSTEM, "snapshot_times": [0.5], "n_grid": [10, 20, 40], "replicates": 0},
        )
        assert main(["chaos", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_budget_exceeded_exit_code(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {"command": "simulate", "system": SYSTEM, "snapshot_times": [1.0], "event_budget": 1},
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


class TestSimulateCommand:
    def test_runs_and_writes(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(
            tmp_path,
            "c.json",
            {"command": "simulate", "system": SYSTEM, "snapshot_times": [0.0, 0.5, 1.0], "write_events": True},
        )
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "bound_report.json").read_text())
        assert report["ok"] is True and report["spikes"] > 0
        lines = (out / "snapshots.csv").read_text().splitlines()
        assert lines[0] == "replicate,time,particle_rank,value"
        assert len(lines) == 1 + 3 * SYSTEM["n"]
        assert (out / "events.csv").exists()

    def test_empty_snapshots_only_report(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "c.json", {"command": "simulate", "system": SYSTEM, "snapshot_times": []})
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "snapshots.csv").read_text().splitlines()) == 1

    def test_all_zero_run(self, tmp_path):
        out = tmp_path / "out"
        sys0 = dict(SYSTEM, n=1, initial={"kind": "point_mass", "x0": 0.0})
        cfg = write_cfg(tmp_path, "c.json", {"command": "simulate", "system": sys0, "snapshot_times": [1.0]})
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "bound_report.json").read_text())
        assert report["spikes"] == 0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "c.json", {"command": "simulate", "system": SYSTEM, "snapshot_times": [0.5, 1.0]}
        )
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "snapshots.csv").read_bytes() == (tmp_path / "b" / "snapshots.csv").read_bytes()


class TestInvariantCommand:
    def test_linear_lam0(self, tmp_path):
        out = tmp_path / "out"
        sys0 = {"lambda": 0.0, "rate": {"kind": "power", "c": 1.0, "xi": 1.0},
                "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 1}
        cfg = write_cfg(tmp_path, "c.json", {"command": "invariant", "system": sys0})
        assert main(["invariant", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "invariant.json").read_text())
        assert summary["p"] == pytest.approx(2 / math.pi, abs=1e-6)
        assert (out / "invariant_density.csv").exists()

    def test_linear_lam1(self, tmp_path):
        out = tmp_path / "out"
        sys1 = {"lambda": 1.0, "rate": {"kind": "power", "c": 1.0, "xi": 1.0},
                "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 1}
        cfg = write_cfg(tmp_path, "c.json", {"command": "invariant", "system": sys1})
        assert main(["invariant", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "invariant.json").read_text())
        assert 1.0 < summary["a_star"] < 2.0

    def test_invalid_rate_exit_2(self, tmp_path):
        sys_bad = {"lambda": 0.0, "rate": {"kind": "polynomial", "coeffs": [-1.0]},
                   "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 1}
        cfg = write_cfg(tmp_path, "c.json", {"command": "invariant", "system": sys_bad})
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_quadrature_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        # lambda 3.5 with f(x) = x needs 8 panel doublings of the invariant
        # pass; a cap of 2 makes the pass fail
        import neuronmf.invariant as inv

        monkeypatch.setattr(inv, "_MAX_DOUBLINGS", 2)
        sys35 = {"lambda": 3.5, "rate": {"kind": "power", "c": 1.0, "xi": 1.0},
                 "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 1}
        cfg = write_cfg(tmp_path, "c.json", {"command": "invariant", "system": sys35})
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("tolerance violated: quadrature") and err.count("\n") == 1

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_underflowing_rate_warns_nothing(self, tmp_path, capsys, lam):
        # f(x) = 5e-324 x^3 underflows on the whole grid: the tail bound is
        # infinite at every V, which fails the pass with one line and no warning
        sys_tiny = {"lambda": lam, "rate": {"kind": "power", "c": 5e-324, "xi": 3.0},
                    "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 1}
        cfg = write_cfg(tmp_path, "c.json", {"command": "invariant", "system": sys_tiny})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["invariant", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("tolerance violated:") and err.count("\n") == 1

    def test_quadrature_failure_stays_small(self, tmp_path, capsys, monkeypatch):
        # a failure with the default doubling cap, from a tolerance below
        # rounding: it must end with exit 1 before the doubled panels grow to
        # hundreds of MiB
        import neuronmf.invariant as inv

        monkeypatch.setattr(inv, "_QUAD_ABS", 1e-30)
        sys35 = {"lambda": 3.5, "rate": {"kind": "power", "c": 1.0, "xi": 1.0},
                 "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 1}
        cfg = write_cfg(tmp_path, "c.json", {"command": "invariant", "system": sys35})
        tracemalloc.start()
        try:
            code = main(["invariant", "--config", cfg, "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith("tolerance violated: quadrature")
        assert peak < 256 * 2**20


    def test_fractional_exponent_solves_within_gates(self, tmp_path, capsys):
        # xi = 1.5 at lambda 1: x^1.5 is smooth in u on the pass's graded grid v = V u^2
        sys1 = {"lambda": 1.0, "rate": {"kind": "power", "c": 1.0, "xi": 1.5},
                "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 1}
        cfg = write_cfg(tmp_path, "c.json", {"command": "invariant", "system": sys1})
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""


class TestSolveLimitCommand:
    def test_residual_memory_bounded(self):
        # the survival check integrates its 2000 initial nodes in bounded chunks
        system = SystemConfig(n=1, lam=1.0, rate=RateFunction.power(1, 2), initial=InitialLaw.exponential(1.0),
                              horizon=2.0, seed=1)
        sol = solve_marginals(system, snapshot_times=[2.0])
        snap = sol.snapshot_at(2.0)
        tracemalloc.start()
        try:
            residual = _loidetau_residual(sol, snap, system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= system.tolerances.mass_abs
        assert peak <= 32 * 2**20

    def test_mass_drift_exit_1(self, tmp_path, capsys):
        sys0 = dict(SYSTEM, n=1, horizon=1.0, tolerances={"mass_abs": 1e-12})
        cfg = write_cfg(tmp_path, "c.json", {"command": "solve-limit", "system": sys0, "snapshot_times": [1.0]})
        assert main(["solve-limit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("tolerance violated: mass") and err.count("\n") == 1

    def test_runs_and_checks(self, tmp_path):
        out = tmp_path / "out"
        sys0 = dict(SYSTEM, n=1, horizon=2.0)
        cfg = write_cfg(
            tmp_path, "c.json", {"command": "solve-limit", "system": sys0, "snapshot_times": [0.5, 1.0, 2.0]}
        )
        assert main(["solve-limit", "--config", cfg, "--out", str(out)]) == 0
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "time,a,p,m"
        report = json.loads((out / "limit_report.json").read_text())
        assert report["ok"] is True
        assert len(report["snapshots"]) == 3
        assert (out / "density_000.csv").exists()

    def test_overflowing_rate_fails_with_one_line(self, tmp_path, capsys):
        # x^60 at a0 = E f(X0) ~ 3e71: the first step carries the nodes where x^60 overflows
        sys0 = dict(SYSTEM, n=1, horizon=2.0, rate={"kind": "power", "c": 1.0, "xi": 60.0})
        cfg = write_cfg(tmp_path, "c.json", {"command": "solve-limit", "system": sys0, "snapshot_times": [1.0, 2.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve-limit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "tolerance violated: non-finite drift at t=0.002\n"

    def test_delta0_trivial(self, tmp_path):
        out = tmp_path / "out"
        sys0 = dict(SYSTEM, n=1, initial={"kind": "point_mass", "x0": 0.0})
        cfg = write_cfg(tmp_path, "c.json", {"command": "solve-limit", "system": sys0, "snapshot_times": [1.0]})
        assert main(["solve-limit", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "series.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)


# the last-jump-time check's cases: Exp(1) to horizon 2, one snapshot early and one at the end
CHECK_RATES = {
    "x": RateFunction.power(1, 1),
    "x2": RateFunction.power(1, 2),
    "x1.5": RateFunction.power(1, 1.5),
    "cubic": RateFunction.polynomial([0.5, 0.0, 1.0]),
}


EXP1_LAW = InitialLaw.exponential(1.0)


@functools.cache
def _solved(name, lam, initial=EXP1_LAW):
    system = SystemConfig(n=1, lam=lam, rate=CHECK_RATES[name], initial=initial, horizon=2.0, seed=1)
    return system, solve_marginals(system, snapshot_times=[0.5, 2.0])


class TestLastJumpCheck:
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("name", list(CHECK_RATES))
    def test_skipped_tail_bound_dominates(self, monkeypatch, name, lam):
        # against survival on all 2000 nodes, at the check's cut and at cuts
        # where the skipped nodes still carry mass; along the solved drift and
        # along a = 0, the smallest drift the bound allows, where it is tightest
        # (exact at lambda 0, so the slack is survival's 1e-8 on the exponent)
        system, sol = _solved(name, lam)
        no_drift = DriftSeries(times=sol.times, a=np.zeros(sol.times.size))
        for snap in sol.snapshots:
            x, g0 = snap.init_x, snap.init_g0
            w = cli.quadrature.trapezoid_weights(x)
            for drift in (sol.drift(), no_drift):
                mass = w * g0 * survival(0.0, snap.t, x, system.rate, lam, drift)
                for cut in (1e-16, 1e-10, 1e-6, 1e-3):
                    monkeypatch.setattr(cli, "_TAIL_BOUND", cut)
                    k, bound = cli._initial_tail(x, g0, w, snap.t, system.rate, lam)
                    assert bound < cut
                    assert mass[k:].sum() <= bound * (1.0 + 1e-7)
            # the cut at 1e-16 drops the nodes of the largest x, and most of them where the rate grows fast
            monkeypatch.setattr(cli, "_TAIL_BOUND", 1e-16)
            k = cli._initial_tail(x, g0, w, snap.t, system.rate, lam)[0]
            assert k < (0.6 if name in ("x2", "cubic") else 1.0) * x.size

    @pytest.mark.parametrize(
        "name, lam, initial",
        [
            ("x2", 1.0, EXP1_LAW),
            ("cubic", 0.0, EXP1_LAW),
            ("cubic", 1.0, EXP1_LAW),
            ("x2", 0.0, InitialLaw.point_mass(3.0)),
        ],
        ids=["x2-1-exp", "cubic-0-exp", "cubic-1-exp", "x2-0-point3"],
    )
    def test_jump_part_within_its_error_term(self, name, lam, initial):
        # against a 1,025-node Simpson rule in the same graded variable
        system, sol = _solved(name, lam, initial)
        for snap in sol.snapshots:
            t = snap.t
            jump, err = cli._jump_part(sol, t, system)
            v = np.linspace(0.0, 1.0, 1025)
            s = t * v * v
            kappa = survival(s, t, 0.0, system.rate, lam, sol.drift())
            weights = np.where(np.arange(1025) % 2 == 1, 4.0, 2.0)
            weights[[0, -1]] = 1.0
            reference = weights @ (2.0 * t * v * cli._local_cubic(s, sol.times, sol.p) * kappa) / (3 * 1024)
            assert abs(jump - reference) <= err

    def test_error_terms_add_to_the_residual(self, monkeypatch):
        system, sol = _solved("x2", 1.0)
        snap = sol.snapshots[-1]
        base = _loidetau_residual(sol, snap, system)
        jump_part, initial_tail = cli._jump_part, cli._initial_tail
        monkeypatch.setattr(cli, "_jump_part", lambda *a: (jump_part(*a)[0], jump_part(*a)[1] + 1e-3))
        monkeypatch.setattr(cli, "_initial_tail", lambda *a: (initial_tail(*a)[0], initial_tail(*a)[1] + 2e-3))
        assert _loidetau_residual(sol, snap, system) == pytest.approx(base + 3e-3, abs=1e-12)

    def test_scaled_rate_series_fails(self):
        system, sol = _solved("x2", 1.0)
        bad = dataclasses.replace(sol, p=sol.p * (1.0 + 1e-3))
        assert all(_loidetau_residual(bad, snap, system) > 1e-4 for snap in bad.snapshots)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_cubic_from_exp1_passes(self, tmp_path, lam):
        # it read 2.0e-4 at t=0.5 with a 257-node trapezoid rule in s
        sys0 = dict(SYSTEM, n=1, **{"lambda": lam}, horizon=2.0, rate={"kind": "polynomial", "coeffs": [0.5, 0.0, 1.0]})
        snaps = [0.5, 1.0, 2.0]
        cfg = write_cfg(tmp_path, "c.json", {"command": "solve-limit", "system": sys0, "snapshot_times": snaps})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve-limit", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def _write_csv_per_row(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row) + "\n")


class TestCsvWriter:
    @pytest.mark.parametrize("count", [0, 1, 3, 2 * cli._CSV_CHUNK + 5])
    def test_same_bytes_as_per_row(self, tmp_path, count):
        floats = [0.1, -1.0 / 3.0, 5e-324, 1e300, 0.0, -0.0, math.inf, 2.0]
        rows = [(floats[i % 8] * (i + 1), i - 7, ("jump", "initial", "atom")[i % 3]) for i in range(count)]
        cli._write_csv(tmp_path / "a.csv", ["y", "k", "part"], rows)
        _write_csv_per_row(tmp_path / "b.csv", ["y", "k", "part"], rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestEquilibriumCommand:
    def test_non_extinction_lam1(self, tmp_path):
        out = tmp_path / "out"
        sys1 = dict(SYSTEM, n=1, horizon=5.0)
        sys1["tolerances"] = {"dt": 0.01}
        cfg = write_cfg(
            tmp_path, "c.json",
            {"command": "equilibrium", "system": sys1, "time_grid": [1.0, 2.5, 5.0], "floor": 0.01},
        )
        assert main(["equilibrium", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "equilibrium_report.json").read_text())
        assert report["mode"] == "non_extinction"
        assert report["inf_a_after_1"] > 0.01

    def test_tv_decay_lam0(self, tmp_path):
        out = tmp_path / "out"
        sys0 = {"n": 1, "lambda": 0.0, "rate": {"kind": "power", "c": 1.0, "xi": 1.0},
                "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 6.0, "seed": 1,
                "tolerances": {"dt": 0.01}}
        cfg = write_cfg(
            tmp_path, "c.json",
            {"command": "equilibrium", "system": sys0, "time_grid": [0.0, 1.0, 2.0, 4.0, 6.0]},
        )
        assert main(["equilibrium", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "equilibrium_report.json").read_text())
        assert report["mode"] == "tv_decay" and report["monotone_after_1"] is True
        tvs = [float(v) for v in report["tv"].values()]
        assert tvs[0] > tvs[-1]


class TestChaosCommand:
    def test_small_grid_report(self, tmp_path):
        out = tmp_path / "out"
        sys0 = {"lambda": 0.0, "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
                "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 99}
        cfg = write_cfg(
            tmp_path, "c.json",
            {"command": "chaos", "system": sys0, "snapshot_times": [0.5, 1.0],
             "n_grid": [10, 20, 40], "replicates": 4, "slope_band": [-1.5, 0.5], "r_squared_min": 0.0},
        )
        assert main(["chaos", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "chaos_report.json").read_text())
        assert set(report["per_n"]) == {"10", "20", "40"}
        assert all(k in report["slopes"] for k in ["mean_abs_diff", "mean_h_diff", "w1"])
        curve = (out / "chaos_curve.csv").read_text().splitlines()
        assert curve[0] == "n,sup_mean_abs_diff,sup_mean_h_diff,sup_w1"
        assert cli._POOL_STATE == {}  # the serial run (--threads 1 by default) keeps no solve alive

    def test_threads_do_not_change_bytes(self, tmp_path):
        sys0 = {"lambda": 0.0, "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
                "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 7}
        body = {"command": "chaos", "system": sys0, "snapshot_times": [0.5, 1.0],
                "n_grid": [10, 20, 40], "replicates": 4, "slope_band": [-1.5, 0.5], "r_squared_min": 0.0}
        cfg = write_cfg(tmp_path, "c.json", body)
        main(["chaos", "--config", cfg, "--out", str(tmp_path / "a"), "--threads", "1"])
        main(["chaos", "--config", cfg, "--out", str(tmp_path / "b"), "--threads", "3"])
        assert (tmp_path / "a" / "chaos_report.json").read_bytes() == (tmp_path / "b" / "chaos_report.json").read_bytes()
        assert (tmp_path / "a" / "chaos_curve.csv").read_bytes() == (tmp_path / "b" / "chaos_curve.csv").read_bytes()

    def test_threads_under_spawn(self, tmp_path):
        # workers that do not inherit the parent's memory get the same bytes
        sys0 = {"lambda": 0.0, "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
                "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 5}
        body = {"command": "chaos", "system": sys0, "snapshot_times": [0.5, 1.0],
                "n_grid": [5, 10, 20], "replicates": 2, "slope_band": [-9, 9], "r_squared_min": 0.0}
        cfg = write_cfg(tmp_path, "c.json", body)
        script = (
            "import multiprocessing, sys\n"
            "multiprocessing.set_start_method('spawn')\n"
            "from neuronmf.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for threads in ("1", "2"):
            args = ["chaos", "--config", cfg, "--out", str(tmp_path / threads), "--threads", threads]
            run = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
        for name in ("chaos_report.json", "chaos_curve.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        sys0 = {"lambda": 0.0, "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
                "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 7}
        body = {"command": "chaos", "system": sys0, "snapshot_times": [0.5],
                "n_grid": [10, 20, 40], "replicates": 2, "slope_band": [-9, 9], "r_squared_min": 0.0}
        cfg = write_cfg(tmp_path, "c.json", body)
        main(["chaos", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["chaos", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "8"])
        ra = json.loads((tmp_path / "a" / "chaos_report.json").read_text())
        rb = json.loads((tmp_path / "b" / "chaos_report.json").read_text())
        assert ra["per_n"] != rb["per_n"]

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_flow_grid_built_once_per_command(self, tmp_path, monkeypatch, lam):
        # a FlowIntegral is built only when DriftSeries.integral misses its cache;
        # sharing the solution's drift makes it one per command at any replicate count
        calls = []

        class Counting(model.FlowIntegral):
            def __init__(self, *args):
                calls.append(args)
                super().__init__(*args)

        monkeypatch.setattr(model, "FlowIntegral", Counting)
        sys0 = {"lambda": lam, "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
                "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 3}
        counts = []
        for replicates in (1, 3):
            body = {"command": "chaos", "system": sys0, "snapshot_times": [0.5, 1.0],
                    "n_grid": [5, 10, 20], "replicates": replicates, "slope_band": [-9, 9], "r_squared_min": 0.0}
            cfg = write_cfg(tmp_path, f"c{replicates}.json", body)
            calls.clear()
            assert main(["chaos", "--config", cfg, "--out", str(tmp_path / str(replicates))]) == 0
            counts.append(len(calls))
        assert counts == [1, 1]

    def test_curve_is_the_mean_of_the_library_stats(self, tmp_path):
        # each value of chaos_curve.csv is the sup over snapshots of the mean
        # over replicates of simulate_coupled's stats, on the seeds chaos derives
        sys1 = {"lambda": 1.0, "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
                "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 17}
        snaps = [0.5, 1.0]
        body = {"command": "chaos", "system": sys1, "snapshot_times": snaps,
                "n_grid": [5, 10, 20], "replicates": 3, "slope_band": [-9, 9], "r_squared_min": 0.0}
        cfg = write_cfg(tmp_path, "c.json", body)
        assert main(["chaos", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        base = _system_from(body)
        sol = solve_marginals(base, snapshot_times=snaps)
        lines = ["n,sup_mean_abs_diff,sup_mean_h_diff,sup_w1"]
        for n in body["n_grid"]:
            seeds = [derive_seed(base.seed, "chaos", n, rep) for rep in range(3)]
            stats = simulate_coupled(dataclasses.replace(base, n=n), sol, snaps, seeds=seeds)
            sups = [np.max(np.mean([getattr(s, name) for s in stats], axis=0))
                    for name in ("mean_abs_diff", "mean_h_diff", "w1")]
            lines.append(",".join([str(n)] + ["{:.17g}".format(float(sup)) for sup in sups]))
        assert (tmp_path / "o" / "chaos_curve.csv").read_text() == "\n".join(lines) + "\n"

    def test_batch_shapes(self):
        # the benchmark's chaos workload (24 and 48 replicates) and ACCEPT-6 (64)
        # over N = 50..1600: the sizes share batches, largest N first, so a
        # benchmark round runs 6 batches: {1600} and {50..800} at 24
        # replicates, {1600}, {1600}, {800} and {50..400} at 48
        grid = [50, 100, 200, 400, 800, 1600]
        assert cli._chaos_batches([1600], 24) == [((1600, 0, 24),)]
        assert cli._chaos_batches([1600], 64) == [((1600, 0, 22),), ((1600, 22, 44),), ((1600, 44, 64),)]
        assert cli._chaos_batches(grid, 24) == [
            ((1600, 0, 24),), ((800, 0, 24), (400, 0, 24), (200, 0, 24), (100, 0, 24), (50, 0, 24))]
        assert [[n for n, _, _ in batch] for batch in cli._chaos_batches(grid, 48)] == [
            [1600], [1600], [800], [400, 200, 100, 50]]
        for replicates in (24, 48, 64):
            tasks = cli._chaos_batches(grid, replicates)
            assert all(sum((stop - first) * n for n, first, stop in batch) <= cli._BATCH_CELLS for batch in tasks)
            rows = [row for batch in tasks for row in cli._batch_rows(batch)]
            assert sorted(rows) == [(n, rep) for n in grid for rep in range(replicates)]  # each once

    @pytest.mark.parametrize("cpus,workers", [(None, []), (2, [2]), (64, [3])])
    def test_pool_size_bounded_by_tasks_and_cores(self, tmp_path, monkeypatch, cpus, workers):
        # a process pool starts all its workers at once: --threads 10**6 must
        # not ask for more than the 3 batches and the cores. It must get the
        # largest batch (cells) first, and the reports must not depend on
        # that order. At 30 cells a batch, N = 20 takes a batch per replicate
        # and N = 10 and 5 share the third. The fake pool records its size
        # and its tasks and maps in this process
        monkeypatch.setattr(cli, "_BATCH_CELLS", 30)
        sizes, mapped = [], []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                mapped.append(list(tasks))
                return map(fn, mapped[-1])

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sys0 = {"lambda": 0.0, "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
                "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 1.0, "seed": 7}
        body = {"command": "chaos", "system": sys0, "snapshot_times": [0.5, 1.0],
                "n_grid": [5, 10, 20], "replicates": 2, "slope_band": [-9, 9], "r_squared_min": 0.0}
        cfg = write_cfg(tmp_path, "c.json", body)
        assert main(["chaos", "--config", cfg, "--out", str(tmp_path / "a"), "--threads", "1"]) == 0
        assert main(["chaos", "--config", cfg, "--out", str(tmp_path / "b"), "--threads", str(10**6)]) == 0
        assert sizes == workers
        assert mapped == [[((10, 0, 2), (5, 0, 2)), ((20, 0, 1),), ((20, 1, 2),)]] * len(workers)
        for name in ("chaos_report.json", "chaos_curve.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestGateFailureLine:
    """A failed gate exits 1 with one stderr line: the first failing check, from the report's values."""

    def run(self, tmp_path, capsys, cfg):
        out = tmp_path / "o"
        code = main([cfg["command"], "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(out)])
        return code, capsys.readouterr().err.splitlines(), out

    def test_invariant_at_a_huge_rate_scale(self, tmp_path, capsys):
        cfg = {"command": "invariant", "system": {"lambda": 1.0, "rate": {"kind": "power", "c": 1e12, "xi": 2.0}}}
        code, err, out = self.run(tmp_path, capsys, cfg)
        residuals = json.loads((out / "invariant.json").read_text())["residuals"]
        assert residuals["normalization"] <= 1e-8 < residuals["self_consistency"]
        assert code == 1
        assert err == [f"tolerance violated: self_consistency {residuals['self_consistency']!r} > 1e-07"]

    def test_equilibrium_floor_above_the_rate(self, tmp_path, capsys):
        sys1 = dict(SYSTEM, n=1, horizon=2.0)
        cfg = {"command": "equilibrium", "system": sys1, "floor": 1e9}
        code, err, out = self.run(tmp_path, capsys, cfg)
        report = json.loads((out / "equilibrium_report.json").read_text())
        assert code == 1 and report["pass"] is False
        assert err == [f"tolerance violated: inf_a_after_1 {report['inf_a_after_1']!r} <= 1000000000.0"]

    def test_chaos_slope_outside_its_band(self, tmp_path, capsys):
        sys0 = {"lambda": 0.0, "rate": {"kind": "power", "c": 1.0, "xi": 2.0},
                "initial": {"kind": "exponential", "rate": 1.0}, "horizon": 0.5, "seed": 5}
        cfg = {"command": "chaos", "system": sys0, "snapshot_times": [0.5], "n_grid": [4, 8, 16],
               "replicates": 2, "slope_band": [5.0, 6.0], "r_squared_min": 0.0}
        code, err, out = self.run(tmp_path, capsys, cfg)
        report = json.loads((out / "chaos_report.json").read_text())
        assert code == 1 and report["pass"] is False
        assert err == [f"tolerance violated: mean_abs_diff slope {report['slopes']['mean_abs_diff']['slope']!r} < 5.0"]

    def test_solve_limit_residual(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_loidetau_residual", lambda sol, snap, system: 0.5)
        cfg = {"command": "solve-limit", "system": dict(SYSTEM, n=1), "snapshot_times": [0.25, 0.5]}
        code, err, out = self.run(tmp_path, capsys, cfg)
        assert code == 1 and json.loads((out / "limit_report.json").read_text())["ok"] is False
        assert err == ["tolerance violated: loidetau_residual at t=0.25 0.5 > 0.0001"]

    @pytest.mark.parametrize("field,value,line", [
        ("mean_residual", 1e-6, "mean_residual 1e-06 > 1e-09"),
        ("envelope_violations", [(0.1, 0, 9.0, 1.0)] * 3, "envelope_violations 3 > 0"),
    ])
    def test_simulate_bound_report(self, tmp_path, capsys, monkeypatch, field, value, line):
        real = cli.check_apriori

        def doctored(log, snaps, system):
            return dataclasses.replace(real(log, snaps, system), **{field: value})

        monkeypatch.setattr(cli, "check_apriori", doctored)
        cfg = {"command": "simulate", "system": dict(SYSTEM, n=3), "snapshot_times": [0.5]}
        code, err, out = self.run(tmp_path, capsys, cfg)
        assert code == 1 and json.loads((out / "bound_report.json").read_text())["ok"] is False
        assert err == [f"tolerance violated: {line}"]
