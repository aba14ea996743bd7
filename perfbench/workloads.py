"""Seeded experiment configs for the four benchmark workloads.

Each workload is a list of recurlab configs (YAML, plus one CSV input for
``classify``) written into a directory. The program only ever sees these
files. The seed moves start times, phases, amplitudes, shift starts,
initial states and noise, and nothing else: every value it draws stays in
a range where the configs' assertions hold at this commit.

Two sizes exist. ``full`` is what the benchmark measures; ``tiny`` keeps
the same configs and assertions at a fraction of the work, for the
harness smoke test.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

TWO_PI = 2 * math.pi

#: zhikov surrogate windows [t0, t0 + 400] on which branch tracking at
#: dt 0.004 meets no collision and inf |p| <= 0.05; the seed picks one.
#: [800, 1200] is left out: p dips to 6e-6 at t = 1016.3 and the tracker
#: refuses that grid, as it should.
ZHIKOV_STARTS = (0.0, 400.0, 1200.0, 1600.0, 2000.0, 2400.0, 2800.0, 3200.0, 3600.0)

SIZES = {
    "full": {
        "classify": {"span_rap": 2000.0, "span": 2000.0, "dt": 0.02},
        "hull": {"n_shifts": 4, "dt": 0.1},
        "dynamics": {"span": 300.0, "fiber_shifts": 1, "fiber_horizon": 100.0,
                     "dde_horizon": 6.0},
        "roots": {"quad_span": 500.0, "quartic_span": 150.0, "zhikov_span": 400.0},
    },
    "tiny": {
        "classify": {"span_rap": 1400.0, "span": 1400.0, "dt": 0.05},
        "hull": {"n_shifts": 3, "dt": 0.1},
        "dynamics": {"span": 300.0, "fiber_shifts": 1, "fiber_horizon": 100.0,
                     "dde_horizon": 5.0},
        "roots": {"quad_span": 150.0, "quartic_span": 150.0, "zhikov_span": 400.0},
    },
}


@dataclass(frozen=True)
class Case:
    """One config of a workload and the input grid points it certifies."""

    name: str
    path: Path
    grid_points: int


def _grid(span, dt):
    return int(math.floor(span / dt + 1e-9)) + 1


def _tau(hi, step=TWO_PI, refine=True):
    return {"lo": step, "hi": float(hi), "step": step, "refine": refine}


def _is(path, value):
    return {"path": path, "op": "is", "value": value}


def _write(outdir, name, cfg):
    path = outdir / f"{name}.yaml"
    cfg = {"schema": 1, **cfg, "output_dir": name}
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    return path


def _classify(rng, size, outdir):
    dt = size["dt"]
    span = size["span"]
    t0_rap = round(float(rng.uniform(0.0, 200.0)), 3)
    rap = {
        "kind": "classify",
        "signal": {"forcing": "rap_sin_log", "t0": t0_rap, "t1": t0_rap + size["span_rap"],
                   "dt": dt},
        "thresholds": {"epsilon_grid": [0.05], "tau": _tau(100 * math.pi)},
        "write_translation_set": True,
        "assertions": [_is("flags.rap", True), _is("flags.ap", False),
                       _is("flags.aap", False),
                       {"path": "evidence.aap.residual", "op": "ge", "value": 0.1}],
    }
    t0_ap = round(float(rng.uniform(0.0, 1000.0)), 3)
    two_tone = {
        "kind": "classify",
        "signal": {"forcing": "two_tone", "t0": t0_ap, "t1": t0_ap + span, "dt": dt},
        "thresholds": {"epsilon_grid": [0.2], "tau": _tau(span / 4)},
        "assertions": [_is("flags.ap", True), _is("flags.rap", True)],
    }

    # "measured" AAP signal: a sine, a decaying transient and bounded noise
    n = _grid(span, dt)
    t = dt * np.arange(n)
    amp, phase, bump = rng.uniform(0.8, 1.2), rng.uniform(0.0, TWO_PI), rng.uniform(0.5, 1.0)
    v = amp * np.sin(t + phase) + bump * np.exp(-t / 15.0) + rng.uniform(-0.004, 0.004, n)
    csv_path = outdir / "measured.csv"
    np.savetxt(csv_path, np.column_stack([t, v]), delimiter=",", header="t,v0",
               comments="", fmt="%.17g")
    measured = {
        "kind": "classify",
        "signal": {"file": str(csv_path)},
        "thresholds": {"epsilon_grid": [0.05], "tau": _tau(span / 4)},
        "assertions": [_is("flags.aap", True), _is("flags.ap", False), _is("flags.rap", True)],
    }
    return [
        Case("rap_sin_log", _write(outdir, "rap_sin_log", rap), _grid(size["span_rap"], dt)),
        Case("two_tone", _write(outdir, "two_tone", two_tone), _grid(span, dt)),
        Case("measured_aap", _write(outdir, "measured_aap", measured), n),
    ]


def _hull(rng, size, outdir):
    # scaled-down omega_heq1_forcing: late shifts of the flagship forcing
    dt = size["dt"]
    span = 2900.0
    t0 = round(19000.0 + float(rng.uniform(0.0, 400.0)), 3)
    cfg = {
        "kind": "omega",
        "signal": {"forcing": "heq1_forcing", "t0": t0, "t1": t0 + span, "dt": dt},
        "shifts": {"start": 1000.0, "step": 0.5025, "n": size["n_shifts"]},
        "window_len": 1850.0,
        "cluster_tol": 0.02,
        "equi_ap": {"eps": 0.1, "tau": _tau(460.0)},
        "minimality": {"eps": 0.1, "n_probes": 2, "slide_span": 1270.0},
        "assertions": [_is("equi_ap.flag", True), _is("minimality.flag", True)],
    }
    return [Case("omega_heq1", _write(outdir, "omega_heq1", cfg), _grid(span, dt))]


def _dynamics(rng, size, outdir):
    span = size["span"]
    fiber_shifts = [0.0, round(float(rng.uniform(40.0, 80.0)), 3)][:size["fiber_shifts"]]
    ode = {
        "kind": "ode",
        "seed": int(rng.integers(0, 2**31 - 1)),
        "rhs": "heq1",
        "forcing": {"forcing": "rap_sin_log", "t0": 0.0, "t1": span + 100.0, "dt": 0.01},
        "x0": [round(float(rng.uniform(-1.0, 1.0)), 6)],
        "span": span,
        "out_dt": 0.02,
        "tolerances": {"rel": 1.0e-6, "abs": 1.0e-9},
        "classify": {"burn_in": 100.0,
                     "thresholds": {"epsilon_grid": [0.1], "tau": _tau(span / 5)}},
        "condition_h": {"kappa": 0.5, "alpha": 3.0, "box_lo": [-10.0], "box_hi": [10.0],
                        "n_pairs": 2000, "t_samples": [0.0, 1.0]},
        "fiber": {"shifts": fiber_shifts, "x0_set": [[-1.0], [0.0], [1.0]],
                  "horizon": size["fiber_horizon"], "burn_in": 0.6 * size["fiber_horizon"],
                  "cluster_tol": 0.05, "out_dt": 0.05},
        "stability": {"delta_grid": [0.1, 0.5, 1.0], "eps_grid": [0.1, 0.2],
                      "restart_times": [0.0, 50.0], "horizon": 40.0,
                      "kappa": 0.5, "alpha": 3.0},
        "assertions": [
            _is("flows.classification.flags.rap", True),
            {"path": "flows.fiber.m", "op": "eq", "value": 1},
            _is("flows.fiber.constant", True),
            {"path": "condition_h_margin", "op": "ge", "value": 0.0},
            {"path": "flows.stability.attraction.0.1", "op": "le", "value": 19.8},
            {"path": "flows.stability.bound.0.1", "op": "approx", "value": 18.0, "tol": 1e-9},
        ],
    }
    horizon = size["dde_horizon"]
    dde = {
        "kind": "dde",
        "r": 1.0,
        "lags": [0.0, -1.0],
        "weights": [-2.0, 0.5],
        "init": {"value": round(float(rng.uniform(-0.5, 0.5)), 6)},
        "forcing": {"forcing": "rap_sin_log", "t0": 0.0, "t1": horizon + 10.0, "dt": 0.005},
        "horizon": horizon,
        "dt": 0.01,
        # no flag assertion: the classifier's aap flag is known to misfire on
        # this family (see README.md, "Known defects")
        "assertions": [_is("precompact_proxy", True),
                       {"path": "range_bound", "op": "le", "value": 2.0}],
    }
    map_cfg = {
        "kind": "map",
        "map": "affine",
        "params": {"a": 0.5},
        "forcing": {"forcing": "alternating", "t0": 0.0, "t1": 130.0, "dt": 1.0},
        "x0": [round(float(rng.uniform(-1.0, 1.0)), 6)],
        "n_steps": 60,
        "fiber": {"shifts": [0, 1], "x0_set": [[0.0], [1.0], [-2.0]], "burn_in": 40,
                  "cluster_tol": 1.0e-6},
        "assertions": [
            {"path": "maps.fiber.m", "op": "eq", "value": 1},
            _is("maps.fiber.constant", True),
            {"path": "maps.fiber.periods.0.0", "op": "in", "value": [1, 2]},
            {"path": "maps.fiber.periods.1.0", "op": "in", "value": [1, 2]},
        ],
    }
    return [
        Case("ode_heq1", _write(outdir, "ode_heq1", ode), _grid(span, 0.02)),
        Case("dde_linear", _write(outdir, "dde_linear", dde), _grid(horizon, 0.01)),
        Case("map_periodic", _write(outdir, "map_periodic", map_cfg), 61),
    ]


def _roots(rng, size, outdir):
    def rap_coeff(scale, offset):
        return {"forcing": "rap_sin_log", "scale": scale, "offset": offset}

    amp = round(float(rng.uniform(0.8, 1.0)), 6)
    t0_quad = round(float(rng.uniform(0.0, 100.0)), 3)
    span = size["quad_span"]
    quad = {
        "kind": "roots",
        "t0": t0_quad,
        "span": t0_quad + span,
        "dt": 0.005,
        "label": "rap_quadratic",
        "alpha_claim": 2.0,
        "coefficients": [{"forcing": "zero"}, rap_coeff(-amp, -3.0)],
        "classify": {"classify_dt": 0.05,
                     "thresholds": {"epsilon_grid": [0.05], "tau": _tau(span / 4)}},
        # no aap assertion: see README.md, "Known defects"
        "assertions": [_is("branches.0.rap", True), _is("branches.1.rap", True),
                       _is("separation_ok", True), _is("root_bound_ok", True)],
    }
    # x^4 - (5 + f) x^2 + (4 + f): branches -sqrt(4+f), -1, 1, sqrt(4+f)
    t0_quart = round(float(rng.uniform(0.0, 100.0)), 3)
    qspan = size["quartic_span"]
    quartic = {
        "kind": "roots",
        "t0": t0_quart,
        "span": t0_quart + qspan,
        "dt": 0.01,
        "label": "rap_quartic",
        "alpha_claim": 0.7,
        "coefficients": [{"forcing": "zero"}, rap_coeff(-amp, -5.0),
                         {"forcing": "zero"}, rap_coeff(amp, 4.0)],
        "classify": {"classify_dt": 0.1,
                     "thresholds": {"epsilon_grid": [0.05], "tau": _tau(qspan / 4)}},
        # no aap assertion on the outer branches: see README.md, "Known defects"
        "assertions": [{"path": "residual_max", "op": "le", "value": 1.0e-10},
                       _is("separation_ok", True), _is("root_bound_ok", True),
                       _is("branches.0.rap", True), _is("branches.1.ap", True),
                       _is("branches.2.ap", True), _is("branches.3.rap", True)],
    }
    z0 = ZHIKOV_STARTS[int(rng.integers(len(ZHIKOV_STARTS)))]
    zspan = size["zhikov_span"]
    zhikov = {
        "kind": "zhikov",
        "signal": {"forcing": "zhikov_surrogate", "t0": z0, "t1": z0 + zspan, "dt": 0.004},
        "with_decay": True,
        "dd_threshold": 0.2,
        "classify_dt": 0.05,
        "thresholds": {"epsilon_grid": [0.25], "tau": _tau(zspan / 4)},
        "assertions": [{"path": "inf_abs_p", "op": "le", "value": 0.05},
                       _is("dd_separation_holds", False), _is("branches.0.ap", True)],
    }
    return [
        Case("rap_quadratic", _write(outdir, "rap_quadratic", quad), _grid(span, 0.005)),
        Case("rap_quartic", _write(outdir, "rap_quartic", quartic), _grid(qspan, 0.01)),
        Case("zhikov", _write(outdir, "zhikov", zhikov), _grid(zspan, 0.004)),
    ]


_BUILDERS = {"classify": _classify, "hull": _hull, "dynamics": _dynamics, "roots": _roots}


def generate(workload, seed, outdir, size="full"):
    """Write the workload's configs into outdir; returns its list of Case."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([int(seed), list(_BUILDERS).index(workload)])
    return _BUILDERS[workload](rng, SIZES[size][workload], outdir)
