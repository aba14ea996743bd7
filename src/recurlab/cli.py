"""Reproducible experiment runner: configs in, CSV/JSON artifacts out.

Subcommands: ``run <config>``, ``catalog``, ``validate <config>``. A run
writes every declared artifact into its own output directory plus a
manifest with content digests; exit status is 0 only if every in-config
assertion passed (1 = assertion failure, 2 = config error). Identical
config + seed reproduces identical artifact digests.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__, _kernels
from .catalog import RHS_CATALOG, build_forcing, catalog_listing
from .errors import BranchCollisionError, ConfigError, RecurlabError
from .recurrence import TauSpec, Thresholds, classify, equi_ap_test, minimality_test, \
    omega_limit_sample
from .signal import SampledSignal, Window, read_signal_csv, write_signal_csv

SCHEMA_VERSION = 1

KINDS = ("classify", "omega", "ode", "dde", "map", "roots", "zhikov")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def load_config(path):
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}", key="path")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config does not parse: {exc}", key="path")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping", key="root")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"schema must be {SCHEMA_VERSION}", key="schema")
    kind = cfg.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}", key="kind")
    for required in _REQUIRED_KEYS[kind]:
        if required not in cfg:
            raise ConfigError(f"kind={kind} requires key {required!r}", key=required)
    return cfg


_REQUIRED_KEYS = {
    "classify": ("signal", "thresholds"),
    "omega": ("signal", "shifts", "window_len", "cluster_tol"),
    "ode": ("rhs", "x0", "span"),
    "dde": ("r", "lags", "init", "horizon"),
    "map": ("map", "x0", "n_steps"),
    "roots": (),   # either `manifest` or `coefficients` + `span` + `dt`
    "zhikov": ("signal", "thresholds"),
}


def _build_signal(spec):
    if "file" in spec:
        return read_signal_csv(spec["file"])
    if "forcing" in spec:
        return build_forcing(spec["forcing"], float(spec.get("t0", 0.0)),
                             float(spec["t1"]), float(spec["dt"]),
                             spec.get("params", {}))
    raise ConfigError("signal needs `file` or `forcing`", key="signal")


def _build_thresholds(spec):
    tau = spec.get("tau", {})
    cands = TauSpec(
        lo=float(tau.get("lo", np.pi / 2)),
        hi=float(tau.get("hi", 400.0)),
        step=float(tau.get("step", np.pi / 2)),
        refine=bool(tau.get("refine", True)),
        explicit=tuple(tau["explicit"]) if "explicit" in tau else None,
    )
    kwargs = {}
    for key in ("cluster_tol", "tail_fraction", "gap_bound_factor",
                "range_bound", "equicontinuity_bound"):
        if key in spec:
            kwargs[key] = float(spec[key])
    if "stationary_taus" in spec:
        kwargs["stationary_taus"] = tuple(float(x) for x in spec["stationary_taus"])
    return Thresholds(epsilon_grid=tuple(float(e) for e in spec["epsilon_grid"]),
                      tau_candidates=cands, **kwargs)


def _build_rhs(cfg):
    from .flows import RhsSpec

    spec = cfg["rhs"]
    if "forcing_file" in cfg:
        forcing = read_signal_csv(cfg["forcing_file"])
    elif "forcing" in cfg:
        forcing = _build_signal(cfg["forcing"])
    else:
        forcing = None
    if isinstance(spec, str):
        if spec not in RHS_CATALOG:
            raise ConfigError(f"unknown rhs id {spec!r}", key="rhs")
        return RhsSpec(f"catalog:{spec}", dim=int(cfg.get("dim", 1)),
                       params=cfg.get("params", {}), forcing=forcing)
    if isinstance(spec, dict) and "expr" in spec:
        return RhsSpec("expr", dim=int(cfg.get("dim", 1)), params=cfg.get("params", {}),
                       expr=tuple(spec["expr"]), forcing=forcing)
    raise ConfigError("rhs must be a catalog id or {expr: [...]}", key="rhs")


# ---------------------------------------------------------------------------
# kind runners; each returns (report dict, list of extra artifact paths)
# ---------------------------------------------------------------------------

def _run_classify(cfg, outdir):
    s = _build_signal(cfg["signal"])
    if "restrict" in cfg:
        s = s.restrict(Window(float(cfg["restrict"][0]), float(cfg["restrict"][1])))
    th = _build_thresholds(cfg["thresholds"])
    rep = classify(s, th)
    artifacts = []
    if cfg.get("write_translation_set", False):
        path = outdir / "translation_set.csv"
        rep.remote_set.write_csv(path)
        artifacts.append(path)
    return rep.to_dict(), artifacts


def _run_omega(cfg, outdir):
    s = _build_signal(cfg["signal"])
    sh = cfg["shifts"]
    shifts = np.arange(int(sh["n"])) * float(sh["step"]) + float(sh["start"])
    hull = omega_limit_sample(s, shifts, float(cfg["window_len"]), float(cfg["cluster_tol"]))
    report = {
        "n_members": len(hull.members),
        "window": [hull.window.a, hull.window.b],
        "max_pairwise": float(np.max(hull.dist)) if len(hull.members) > 1 else 0.0,
    }
    if "equi_ap" in cfg:
        e = cfg["equi_ap"]
        tau = e.get("tau", {})
        cands = TauSpec(lo=float(tau.get("lo", 2 * np.pi)), hi=float(tau["hi"]),
                        step=float(tau.get("step", 2 * np.pi)),
                        refine=bool(tau.get("refine", True)))
        flag, ts = equi_ap_test(hull, float(e["eps"]), cands,
                                float(e.get("gap_bound_factor", 3.0)))
        report["equi_ap"] = {"flag": bool(flag), "max_gap": ts.max_gap,
                             "n_accepted": int(len(ts.accepted_taus()))}
    if "minimality" in cfg:
        mcfg = cfg["minimality"]
        flag, ev = minimality_test(hull, float(mcfg["eps"]),
                                   n_probes=int(mcfg.get("n_probes", 4)),
                                   slide_span=float(mcfg["slide_span"]) if "slide_span" in mcfg else None)
        report["minimality"] = {"flag": bool(flag), "worst": ev["worst"]}
    return report, []


def _run_ode(cfg, outdir):
    from .flows import (IVP, ConditionHParams, condition_h_margin, fiber_count,
                        hull_solutions, integrate, uniform_stability_probe)

    rhs = _build_rhs(cfg)
    x0 = tuple(np.atleast_1d(cfg["x0"]).astype(float))
    tol = cfg.get("tolerances", {})
    ivp = IVP(rhs, x0, Window(0.0, float(cfg["span"])),
              rel_tol=float(tol.get("rel", 1e-8)), abs_tol=float(tol.get("abs", 1e-10)),
              max_step=float(cfg.get("max_step", np.inf)),
              out_dt=float(cfg["out_dt"]) if "out_dt" in cfg else None)
    sol = integrate(ivp)
    sol_path = outdir / "solution.csv"
    write_signal_csv(sol, sol_path)
    report = {"n_samples": len(sol), "dt": sol.dt,
              "final_state": [float(v) for v in sol.values[-1].real]}
    artifacts = [sol_path]

    if "classify" in cfg:
        sub = cfg["classify"]
        seg = sol.restrict(Window(float(sub.get("burn_in", 0.0)), sol.t_end))
        th = _build_thresholds(sub["thresholds"])
        report["flows"] = {"classification": classify(seg, th).to_dict()}
    if "condition_h" in cfg:
        hc = cfg["condition_h"]
        p = ConditionHParams(kappa=float(hc["kappa"]), alpha=float(hc["alpha"]),
                             sample_box=(tuple(np.atleast_1d(hc["box_lo"]).astype(float)),
                                         tuple(np.atleast_1d(hc["box_hi"]).astype(float))),
                             n_pairs=int(hc.get("n_pairs", 10000)))
        report["condition_h_margin"] = condition_h_margin(rhs, p, hc.get("t_samples", [0.0]),
                                                          seed=int(cfg.get("seed", 0)))
    if "fiber" in cfg:
        from .flows import default_burn_in

        fb = cfg["fiber"]
        runs = hull_solutions(rhs, [float(h) for h in fb["shifts"]],
                              [tuple(np.atleast_1d(x).astype(float)) for x in fb["x0_set"]],
                              float(fb["horizon"]),
                              rel_tol=float(tol.get("rel", 1e-8)),
                              abs_tol=float(tol.get("abs", 1e-10)),
                              out_dt=float(fb.get("out_dt", 0.05)))
        cluster_tol = float(fb["cluster_tol"])
        if "burn_in" in fb:
            burn = float(fb["burn_in"])
        elif "condition_h" in cfg:
            # Condition (H) gives the attraction time from the box diameter
            hc = cfg["condition_h"]
            hp = ConditionHParams(kappa=float(hc["kappa"]), alpha=float(hc["alpha"]),
                                  sample_box=(tuple(np.atleast_1d(hc["box_lo"]).astype(float)),
                                              tuple(np.atleast_1d(hc["box_hi"]).astype(float))))
            burn = default_burn_in(hp, cluster_tol)
        else:
            raise ConfigError("fiber needs burn_in (or condition_h for the default)",
                              key="burn_in")
        fr = fiber_count(runs, burn, cluster_tol)
        report.setdefault("flows", {})["fiber"] = fr.to_dict()
    if "stability" in cfg:
        st = cfg["stability"]
        ref = sol
        h_params = None
        if "kappa" in st:
            h_params = ConditionHParams(float(st["kappa"]), float(st["alpha"]),
                                        ((-1.0,), (1.0,)), 1000)
        probe = uniform_stability_probe(
            rhs, ref, [float(d) for d in st["delta_grid"]],
            [float(e) for e in st["eps_grid"]],
            [float(t) for t in st["restart_times"]], float(st["horizon"]),
            rel_tol=float(tol.get("rel", 1e-8)), abs_tol=float(tol.get("abs", 1e-10)),
            h_params=h_params)
        report.setdefault("flows", {})["stability"] = {
            "stability": {f"{k:g}": v for k, v in probe["stability"].items()},
            # None marks "never re-entered within the horizon" (no finite L)
            "attraction": {f"{k:g}": (float(v) if np.isfinite(v) else None)
                           for k, v in probe["attraction"].items()},
            "bound": {f"{k:g}": float(v) for k, v in probe["bound"].items()},
        }
    return report, artifacts


def _run_dde(cfg, outdir):
    from .delay import DelayRhsSpec, HistorySegment, integrate_dde, precompactness_proxy

    forcing = _build_signal(cfg["forcing"]) if "forcing" in cfg else None
    rhs = DelayRhsSpec(lags=tuple(float(x) for x in cfg["lags"]),
                       params={"weights": [float(w) for w in cfg.get("weights", [-1.0])]},
                       forcing=forcing)
    r = float(cfg["r"])
    init_cfg = cfg["init"]
    if "init_file" in cfg:
        init = HistorySegment(r, read_signal_csv(cfg["init_file"]))
    elif "file" in init_cfg:
        init = HistorySegment(r, read_signal_csv(init_cfg["file"]))
    else:
        init = HistorySegment.constant(r, float(init_cfg.get("value", 0.0)))
    u = integrate_dde(rhs, init, float(cfg["horizon"]), dt=float(cfg.get("dt", r / 100)))
    path = outdir / "solution.csv"
    write_signal_csv(u, path)
    ok, ev = precompactness_proxy(u)
    report = {"n_samples": len(u), "dt": u.dt, "precompact_proxy": bool(ok), **ev}
    if "classify" in cfg:
        sub = cfg["classify"]
        seg = u.restrict(Window(float(sub.get("burn_in", 0.0)), u.t_end))
        th = _build_thresholds(sub["thresholds"])
        report["classification"] = classify(seg, th).to_dict()
    return report, [path]


def _run_map(cfg, outdir):
    from .maps import MapSpec, discrete_fiber_count, iterate

    spec = cfg["map"]
    forcing = _build_signal(cfg["forcing"]) if "forcing" in cfg else None
    if isinstance(spec, str):
        m = MapSpec(f"catalog:{spec}", params=cfg.get("params", {}), forcing=forcing)
    else:
        m = MapSpec("expr", params=cfg.get("params", {}), expr=tuple(spec["expr"]),
                    forcing=forcing)
    sol = iterate(m, np.atleast_1d(cfg["x0"]).astype(float), int(cfg["n_steps"]))
    path = outdir / "orbit.csv"
    write_signal_csv(sol, path)
    report = {"n_steps": int(cfg["n_steps"]),
              "final_state": [float(v) for v in sol.values[-1].real]}
    if "fiber" in cfg:
        fb = cfg["fiber"]
        fr = discrete_fiber_count(m, [int(h) for h in fb["shifts"]],
                                  [np.atleast_1d(x).astype(float) for x in fb["x0_set"]],
                                  int(cfg["n_steps"]), int(fb["burn_in"]),
                                  float(fb["cluster_tol"]))
        report["maps"] = {"fiber": fr.to_dict()}
    if "classify" in cfg:
        sub = cfg["classify"]
        seg = sol.restrict(Window(float(sub.get("burn_in", 0)), sol.t_end))
        th = _build_thresholds(sub["thresholds"])
        report["classification"] = classify(seg, th).to_dict()
    return report, [path]


def _coeff_signal(spec, t0, t1, dt):
    if "file" in spec:
        return read_signal_csv(spec["file"])
    if "expr" in spec:
        from .catalog import eval_expr

        tree = spec["expr"]

        def fn(ts):
            return np.array([eval_expr(tree, float(t), np.zeros(1)) for t in ts],
                            dtype=complex)

        return SampledSignal.from_function(fn, t0, t1, dt)
    if "forcing" in spec:
        base = build_forcing(spec["forcing"], t0, t1, dt, spec.get("params", {}))
        vals = base.values[:, 0].astype(complex)
        scale = float(spec.get("scale", 1.0))
        off = complex(spec.get("offset", 0.0))
        return SampledSignal(t0=base.t0, dt=base.dt, values=scale * vals + off)
    raise ConfigError("coefficient needs `file`, `expr` or `forcing`", key="coefficients")


def _run_roots(cfg, outdir):
    from .algebra import (PolyPath, classify_branches, root_bound_check,
                          separation_certificate, track_branches)

    if "manifest" in cfg:
        path_poly = PolyPath.from_manifest(cfg["manifest"])
    else:
        for key in ("coefficients", "span", "dt"):
            if key not in cfg:
                raise ConfigError(f"kind=roots requires `manifest` or key {key!r}", key=key)
        t1 = float(cfg["span"])
        t0 = float(cfg.get("t0", 0.0))
        dt = float(cfg["dt"])
        coeffs = tuple(_coeff_signal(c, t0, t1, dt) for c in cfg["coefficients"])
        path_poly = PolyPath(coeffs, label=cfg.get("label", "poly"))
    report = {"degree": path_poly.degree, "collisions": []}
    artifacts = []
    try:
        rb = track_branches(path_poly)
    except BranchCollisionError as exc:
        report["collisions"].append(list(exc.interval))
        return report, artifacts
    ok_bound, excess = root_bound_check(rb, path_poly)
    alpha_claim = float(cfg.get("alpha_claim", 0.0))
    ok_sep, argmin_t, sep_min, inf_d = separation_certificate(rb, alpha_claim)
    report.update({
        "residual_max": rb.residual_max,
        "separation_min": sep_min,
        "separation_argmin_t": argmin_t,
        "inf_abs_D": inf_d,
        "root_bound_ok": bool(ok_bound),
        "root_bound_excess": excess,
        "separation_ok": bool(ok_sep),
        "max_abs_root": float(np.max(np.abs(rb.branch_matrix()))),
    })
    for i, b in enumerate(rb.branches):
        p = outdir / f"branch{i}.csv"
        write_signal_csv(b, p)
        artifacts.append(p)
    if "classify" in cfg:
        th = _build_thresholds(cfg["classify"]["thresholds"])
        cdt = cfg["classify"].get("classify_dt")
        reports = classify_branches(rb, th, classify_dt=float(cdt) if cdt else None)
        report["branches"] = [r.to_dict()["flags"] for r in reports]
    return report, artifacts


def _run_zhikov(cfg, outdir):
    from .algebra import zhikov_pipeline

    s = _build_signal(cfg["signal"])
    vals = s.values[:, 0].astype(complex)
    s = SampledSignal(t0=s.t0, dt=s.dt, values=vals, label=s.label)
    th = _build_thresholds(cfg["thresholds"])
    report, rb = zhikov_pipeline(s, bool(cfg.get("with_decay", True)), th,
                                 dd_threshold=float(cfg.get("dd_threshold", 0.05)),
                                 classify_dt=float(cfg.get("classify_dt", 0.02)))
    artifacts = []
    if rb is not None:
        for i, b in enumerate(rb.branches):
            p = outdir / f"branch{i}.csv"
            write_signal_csv(b, p)
            artifacts.append(p)
    return report, artifacts


_RUNNERS = {
    "classify": _run_classify,
    "omega": _run_omega,
    "ode": _run_ode,
    "dde": _run_dde,
    "map": _run_map,
    "roots": _run_roots,
    "zhikov": _run_zhikov,
}


# ---------------------------------------------------------------------------
# assertions, manifest, entry points
# ---------------------------------------------------------------------------

def _lookup(report, dotted):
    # dict keys may themselves contain dots (epsilon values like "0.05"),
    # so dict descent greedily tries the longest joined key first
    parts = dotted.split(".")
    cur = report
    i = 0
    while i < len(parts):
        if isinstance(cur, list):
            cur = cur[int(parts[i])]
            i += 1
        elif isinstance(cur, dict):
            for j in range(len(parts), i, -1):
                key = ".".join(parts[i:j])
                if key in cur:
                    cur = cur[key]
                    i = j
                    break
            else:
                raise KeyError(f"assertion path {dotted!r}: missing {parts[i]!r}")
        else:
            raise KeyError(f"assertion path {dotted!r}: cannot descend into {cur!r}")
    return cur


def check_assertions(report, assertions):
    failures = []
    for a in assertions:
        try:
            got = _lookup(report, a["path"])
        except KeyError as exc:
            failures.append({"assertion": a, "error": str(exc)})
            continue
        op = a.get("op", "is")
        want = a.get("value")
        ok = {
            "is": lambda: got == want,
            "eq": lambda: got == want,
            "approx": lambda: abs(got - want) <= a.get("tol", 1e-9),
            "le": lambda: got <= want,
            "ge": lambda: got >= want,
            "lt": lambda: got < want,
            "gt": lambda: got > want,
            "in": lambda: got in want,
        }.get(op)
        if ok is None:
            failures.append({"assertion": a, "error": f"unknown op {op!r}"})
        elif not ok():
            failures.append({"assertion": a, "got": got})
    return failures


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_config(path, output_root=None):
    """Execute one experiment config; returns (exit_code, manifest dict)."""
    cfg = load_config(path)
    seed = int(cfg.get("seed", 0))
    np.random.seed(seed)  # legacy global, in case user expressions consult it
    root = output_root or os.environ.get("RECURLAB_OUT", ".")
    outdir = Path(root) / cfg.get("output_dir", Path(path).stem)
    outdir.mkdir(parents=True, exist_ok=True)

    started = time.time()
    report, artifacts = _RUNNERS[cfg["kind"]](cfg, outdir)
    report_path = outdir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, default=float)
        fh.write("\n")
    artifacts = [report_path] + list(artifacts)

    failures = check_assertions(report, cfg.get("assertions", []))
    if failures:
        with open(outdir / "failures.json", "w") as fh:
            json.dump(failures, fh, indent=1, default=float)
            fh.write("\n")

    with open(path, "rb") as fh:
        config_sha = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "config": str(path),
        "config_sha256": config_sha,
        "seed": seed,
        "artifacts": [{"path": str(p.relative_to(outdir)), "sha256": _sha256(p)}
                      for p in artifacts],
        "wall_time_s": round(time.time() - started, 3),
        "versions": {
            "recurlab": __version__,
            "numpy": np.__version__,
            "kernel_backend": _kernels.backend_name(),
        },
        "passed": not failures,
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return (0 if not failures else 1), manifest


def main(argv=None):
    parser = argparse.ArgumentParser(prog="recurlab",
                                     description="recurrence classification experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output-root", default=None)
    sub.add_parser("catalog", help="list builtin systems and forcings")
    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    if args.command == "catalog":
        for entry in catalog_listing():
            doc = entry.get("doc", "")
            print(f"{entry['kind']:8s} {entry['id']:22s} {doc}")
        return 0
    if args.command == "validate":
        try:
            load_config(args.config)
        except ConfigError as exc:
            print(f"config error ({exc.key}): {exc}", file=sys.stderr)
            return 2
        print("ok")
        return 0
    try:
        code, manifest = run_config(args.config, args.output_root)
    except ConfigError as exc:
        print(f"config error ({exc.key}): {exc}", file=sys.stderr)
        return 2
    except RecurlabError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    status = "pass" if code == 0 else "FAIL"
    print(f"{status}: {manifest['config']} ({manifest['wall_time_s']}s, "
          f"{len(manifest['artifacts'])} artifacts)")
    return code


if __name__ == "__main__":
    sys.exit(main())
