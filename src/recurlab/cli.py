"""Reproducible experiment runner: configs in, `.npy`/CSV/JSON artifacts out.

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
from .catalog import build_forcing, catalog_listing, eval_expr
from .errors import ConfigError, RecurlabError
from .recurrence import TauSpec, Thresholds, classify, equi_ap_test, minimality_test, \
    omega_limit_sample
from .signal import SampledSignal, Window, read_signal, write_signal

SCHEMA_VERSION = 1

KINDS = ("classify", "omega", "ode", "dde", "map", "roots", "zhikov")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def load_config(path):
    try:
        with open(path) as fh:
            # libyaml's parser when PyYAML has it: the same dicts, 4-8x faster
            cfg = yaml.load(fh, yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
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
    _check_keys(cfg, _CONFIG_KEYS[kind])
    if kind == "ode":
        _check_ode_couplings(cfg)
    if kind == "dde":
        _check_dde_weights(cfg)
    return cfg


def _read_input(path):
    """The signal of a `file:` input, read by `read_signal`; a file that
    cannot be read is a ConfigError naming it."""
    try:
        return read_signal(str(path))
    except (OSError, EOFError, ValueError) as exc:  # np.load of an empty file: EOFError
        raise ConfigError(f"cannot read input file {path}: {exc}", key="file") from exc


def _build_signal(spec):
    if "file" in spec:
        return _read_input(spec["file"])
    return build_forcing(spec["forcing"], float(spec.get("t0", 0.0)), float(spec["t1"]),
                         float(spec["dt"]), spec.get("params", {}))


class _Block(dict):
    """Accepted keys of a config block, built by `_keys`; ``required`` holds
    one tuple of alternatives per need, each alternative a tuple of keys."""


def _tuple(x):
    return x if isinstance(x, tuple) else (x,)


def _keys(*names, required=(), **blocks):
    """Accepted keys of a config block: plain keys map to None, nested blocks
    to their own accepted keys, lists of blocks to a one-element list of them.

    ``required`` lists what the block must hold: a key, or a tuple of
    alternatives (each a key or a tuple of keys) one of which it must hold
    in full. The keys named there are accepted too.
    """
    needs = tuple(tuple(map(_tuple, _tuple(need))) for need in required)
    named = (key for need in needs for alt in need for key in alt)
    block = _Block({**dict.fromkeys(names), **dict.fromkeys(named), **blocks})
    block.required = needs
    return block


#: a signal spec (`signal`, and `forcing` of the system kinds) and one roots coefficient
_SIGNAL = _keys("t0", "params", required=[("file", ("forcing", "t1", "dt"))])
_COEFFICIENT = _keys("params", "scale", "offset", required=[("file", "expr", "forcing")])
_TAU = _keys("lo", "hi", "step", "refine")
_THRESHOLDS = _keys(required=["epsilon_grid"], tau=_TAU)
_CLASSIFY = _keys("burn_in", required=["thresholds"], thresholds=_THRESHOLDS)

_COMMON = ("schema", "kind", "seed", "output_dir", "assertions")

#: the keys each kind reads and the ones it must have, nested blocks with
#: their own; load_config refuses any other key, at the top level or inside
#: a block, and any config that lacks a required one
_CONFIG_KEYS = {
    "classify": _keys(*_COMMON, "write_translation_set",
                      required=["signal", "thresholds"], signal=_SIGNAL, thresholds=_THRESHOLDS),
    "omega": _keys(*_COMMON, required=["signal", "shifts", "window_len", "cluster_tol"],
                   signal=_SIGNAL, shifts=_keys(required=["start", "step", "n"]),
                   equi_ap=_keys(required=["eps", "tau"],
                                 tau=_keys("lo", "step", "refine", required=["hi"])),
                   minimality=_keys("n_probes", "slide_span", required=["eps"])),
    "ode": _keys(*_COMMON, "params", "out_dt", required=["rhs", "x0", "span"],
                 forcing=_SIGNAL, tolerances=_keys("rel", "abs"), classify=_CLASSIFY,
                 condition_h=_keys("n_pairs", "t_samples",
                                   required=["kappa", "alpha", "box_lo", "box_hi"]),
                 fiber=_keys("burn_in", "out_dt",
                             required=["shifts", "x0_set", "horizon", "cluster_tol"]),
                 stability=_keys("kappa", "alpha", required=["delta_grid", "eps_grid",
                                                             "restart_times", "horizon"])),
    "dde": _keys(*_COMMON, "weights", "dt", required=["r", "lags", "init", "horizon"],
                 forcing=_SIGNAL, init=_keys("value", "file"), classify=_CLASSIFY),
    "map": _keys(*_COMMON, "params", required=["map", "x0", "n_steps"], forcing=_SIGNAL,
                 fiber=_keys(required=["shifts", "x0_set", "burn_in", "cluster_tol"]),
                 classify=_CLASSIFY),
    "roots": _keys(*_COMMON, "t0", "label", "alpha_claim",
                   required=["coefficients", "span", "dt"],
                   coefficients=[_COEFFICIENT],
                   classify=_keys("classify_dt", required=["thresholds"], thresholds=_THRESHOLDS)),
    "zhikov": _keys(*_COMMON, "with_decay", "dd_threshold", "classify_dt",
                    required=["signal", "thresholds"], signal=_SIGNAL, thresholds=_THRESHOLDS),
}


def _check_keys(spec, allowed, path=""):
    """ConfigError naming the first key of ``spec`` that ``allowed`` lacks, else
    a required key ``spec`` lacks; then the same for every nested block, or
    block of a list, that ``allowed`` lists."""
    where = f"`{path}`" if path else "the config"
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where} (accepted: "
                          f"{', '.join(allowed)})", key=unknown[0])
    for need in allowed.required:
        if any(all(key in spec for key in alt) for alt in need):
            continue
        # name a key of the alternative the block has begun, else of the first
        alt = next((alt for alt in need if any(key in spec for key in alt)), need[0])
        key = next(key for key in alt if key not in spec)
        options = " or ".join(", ".join(f"`{k}`" for k in alt) for alt in need)
        raise ConfigError(f"missing key {key!r} in {where}"
                          + (f" (needs {options})" if len(need) > 1 else ""), key=key)
    for name, sub in allowed.items():
        if sub is None or name not in spec:
            continue
        sub_path = f"{path}.{name}" if path else name
        blocks = {sub_path: spec[name]}
        if isinstance(sub, list):
            if not isinstance(spec[name], list):
                raise ConfigError(f"`{sub_path}` must be a list", key=name)
            sub = sub[0]
            blocks = {f"{sub_path}.{i}": block for i, block in enumerate(spec[name])}
        for block_path, block in blocks.items():
            if not isinstance(block, dict):
                raise ConfigError(f"`{block_path}` must be a mapping", key=name)
            _check_keys(block, sub, block_path)


def _check_ode_couplings(cfg):
    """ConfigError for the two ode rules that couple keys: `stability` takes
    `kappa` and `alpha` together, and `fiber` needs `burn_in` unless
    `condition_h` supplies the default."""
    st = cfg.get("stability", {})
    if ("kappa" in st) != ("alpha" in st):
        key = "alpha" if "kappa" in st else "kappa"
        raise ConfigError(f"missing key {key!r} in `stability` (needs `kappa` and `alpha` "
                          f"together, or neither)", key=key)
    if "fiber" in cfg and "burn_in" not in cfg["fiber"] and "condition_h" not in cfg:
        raise ConfigError("missing key 'burn_in' in `fiber` (needs `burn_in`, or `condition_h` "
                          "for the default)", key="burn_in")


def _check_dde_weights(cfg):
    """ConfigError unless a dde `weights`, when set, holds one weight per lag
    (without it every lag weighs -1)."""
    if "weights" in cfg and np.shape(cfg["weights"]) != np.shape(cfg["lags"]):
        raise ConfigError(f"`weights` {cfg['weights']!r} needs one weight per lag of "
                          f"{cfg['lags']!r}", key="weights")


def _given(spec, **convert):
    """{key: convert[key](spec[key])} for the keys of ``convert`` that spec
    sets; a key it leaves out takes the default of the call it is passed to."""
    return {key: conv(spec[key]) for key, conv in convert.items() if key in spec}


def _build_tau(tau, **defaults):
    """TauSpec from a `tau` block over ``defaults``; a key without a default is required."""
    tau = {**defaults, **tau}
    return TauSpec(float(tau["lo"]), float(tau["hi"]), float(tau["step"]),
                   **_given(tau, refine=bool))


def _build_thresholds(spec):
    cands = _build_tau(spec.get("tau", {}), lo=np.pi / 2, hi=400.0, step=np.pi / 2)
    return Thresholds(tuple(float(e) for e in spec["epsilon_grid"]), cands)


def _classify_after_burn_in(sol, sub):
    """classify's report dict for sol from the `classify` block's burn_in on."""
    seg = sol.restrict(Window(float(sub.get("burn_in", 0.0)), sol.t_end))
    return classify(seg, _build_thresholds(sub["thresholds"])).to_dict()


def _build_field_spec(cls, cfg, key):
    """``cls`` (RhsSpec or MapSpec) from cfg[key], a catalog id or {expr: [...]},
    with the config's `params` and `forcing`."""
    spec = cfg[key]
    forcing = _build_signal(cfg["forcing"]) if "forcing" in cfg else None
    if isinstance(spec, str):
        return cls(f"catalog:{spec}", params=cfg.get("params", {}), forcing=forcing)
    if isinstance(spec, dict) and "expr" in spec:
        return cls("expr", params=cfg.get("params", {}), expr=tuple(spec["expr"]),
                   forcing=forcing)
    raise ConfigError(f"{key} must be a catalog id or {{expr: [...]}}", key=key)


# ---------------------------------------------------------------------------
# kind runners; each returns (report dict, list of extra artifact paths)
# ---------------------------------------------------------------------------

def _run_classify(cfg, outdir):
    rep = classify(_build_signal(cfg["signal"]), _build_thresholds(cfg["thresholds"]))
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
        "max_pairwise": hull.max_pairwise(),
    }
    if "equi_ap" in cfg:
        e = cfg["equi_ap"]
        cands = _build_tau(e.get("tau", {}), lo=2 * np.pi, step=2 * np.pi)
        flag, ts = equi_ap_test(hull, float(e["eps"]), cands)
        report["equi_ap"] = {"flag": bool(flag), "max_gap": ts.max_gap,
                             "n_accepted": int(len(ts.accepted_taus()))}
    if "minimality" in cfg:
        mcfg = cfg["minimality"]
        flag, ev = minimality_test(hull, float(mcfg["eps"]),
                                   **_given(mcfg, n_probes=int, slide_span=float))
        report["minimality"] = {"flag": bool(flag), "worst": ev["worst"]}
    return report, []


def _run_ode(cfg, outdir):
    from .flows import (IVP, ConditionHParams, RhsSpec, condition_h_margin, fiber_count,
                        hull_solutions, integrate, uniform_stability_probe)

    rhs = _build_field_spec(RhsSpec, cfg, "rhs")
    x0 = tuple(np.atleast_1d(cfg["x0"]).astype(float))
    # rel_tol, abs_tol of the main solve, the hull family and the stability probe
    tol = {f"{key}_tol": float(v) for key, v in cfg.get("tolerances", {}).items()}
    sol = integrate(IVP(rhs, x0, Window(0.0, float(cfg["span"])), **tol,
                        **_given(cfg, out_dt=float)))
    artifacts = write_signal(sol, outdir / "solution.npy")
    report = {"n_samples": len(sol), "dt": sol.dt,
              "final_state": [float(v) for v in sol.values[-1].real]}

    if "classify" in cfg:
        report["flows"] = {"classification": _classify_after_burn_in(sol, cfg["classify"])}
    cond_h = None
    if "condition_h" in cfg:
        hc = cfg["condition_h"]
        cond_h = ConditionHParams(kappa=float(hc["kappa"]), alpha=float(hc["alpha"]),
                                  sample_box=(tuple(np.atleast_1d(hc["box_lo"]).astype(float)),
                                              tuple(np.atleast_1d(hc["box_hi"]).astype(float))),
                                  **_given(hc, n_pairs=int))
        report["condition_h_margin"] = condition_h_margin(rhs, cond_h, hc.get("t_samples", [0.0]),
                                                          seed=int(cfg.get("seed", 0)))
    if "fiber" in cfg:
        from .flows import default_burn_in

        fb = cfg["fiber"]
        runs = hull_solutions(rhs, [float(h) for h in fb["shifts"]],
                              [tuple(np.atleast_1d(x).astype(float)) for x in fb["x0_set"]],
                              float(fb["horizon"]), **tol, out_dt=float(fb.get("out_dt", 0.05)))
        cluster_tol = float(fb["cluster_tol"])
        # without burn_in, Condition (H) gives the attraction time from the box diameter
        burn = float(fb["burn_in"]) if "burn_in" in fb else default_burn_in(cond_h, cluster_tol)
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
            [float(t) for t in st["restart_times"]], float(st["horizon"]), **tol,
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
    params = {"weights": [float(w) for w in cfg["weights"]]} if "weights" in cfg else {}
    rhs = DelayRhsSpec(lags=tuple(float(x) for x in cfg["lags"]), params=params, forcing=forcing)
    r = float(cfg["r"])
    init_cfg = cfg["init"]
    if "file" in init_cfg:
        init = HistorySegment(r, _read_input(init_cfg["file"]))
    else:
        init = HistorySegment.constant(r, float(init_cfg.get("value", 0.0)))
    u = integrate_dde(rhs, init, float(cfg["horizon"]), **_given(cfg, dt=float))
    artifacts = write_signal(u, outdir / "solution.npy")
    ok, ev = precompactness_proxy(u)
    report = {"n_samples": len(u), "dt": u.dt, "precompact_proxy": bool(ok), **ev}
    if "classify" in cfg:
        report["classification"] = _classify_after_burn_in(u, cfg["classify"])
    return report, artifacts


def _run_map(cfg, outdir):
    from .maps import MapSpec, discrete_fiber_count, iterate

    m = _build_field_spec(MapSpec, cfg, "map")
    sol = iterate(m, np.atleast_1d(cfg["x0"]).astype(float), int(cfg["n_steps"]))
    artifacts = write_signal(sol, outdir / "orbit.npy")
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
        report["classification"] = _classify_after_burn_in(sol, cfg["classify"])
    return report, artifacts


def _coeff_signal(spec, t0, t1, dt):
    """One roots coefficient, scale * a + offset (defaults 1 and 0) on the grid
    t0, t0 + dt, ... <= t1, with a the spec's `file`, `expr` or `forcing`
    source; a file must hold one column on that grid."""
    params = spec.get("params", {})
    if "file" in spec:
        from .algebra import on_grid

        base, n = _read_input(spec["file"]), SampledSignal.grid_len(t0, t1, dt)
        if base.dim != 1 or not on_grid(base, t0, dt, n):
            raise ConfigError(
                f"coefficient file {spec['file']} holds {len(base)} x {base.dim} samples from "
                f"t0 {base.t0} in steps of {base.dt}; the config's grid needs {n} x 1 from "
                f"t0 {t0} in steps of {dt}", key="coefficients")
    elif "expr" in spec:
        base = SampledSignal.from_function(
            lambda ts: np.full(ts.shape, eval_expr(spec["expr"], ts, np.zeros(1), params),
                               dtype=complex), t0, t1, dt)
    else:
        base = build_forcing(spec["forcing"], t0, t1, dt, params)
    vals = base.values[:, 0].astype(complex)
    # a key left out keeps the source's bits (adding 0.0 would turn -0.0 into +0.0)
    if "scale" in spec:
        vals = float(spec["scale"]) * vals
    if "offset" in spec:
        vals = vals + complex(spec["offset"])
    return SampledSignal(t0=t0, dt=dt, values=vals)


def _branch_artifacts(rb, outdir):
    """Write one `.npy` per tracked branch; none when tracking met a collision."""
    if rb is None:
        return []
    return [p for i, b in enumerate(rb.branches)
            for p in write_signal(b, outdir / f"branch{i}.npy")]


def _run_roots(cfg, outdir):
    from .algebra import PolyPath, roots_report

    t0, t1, dt = float(cfg.get("t0", 0.0)), float(cfg["span"]), float(cfg["dt"])
    path_poly = PolyPath(tuple(_coeff_signal(c, t0, t1, dt) for c in cfg["coefficients"]),
                         label=cfg.get("label", "poly"))
    sub = cfg.get("classify", {})
    th = _build_thresholds(sub["thresholds"]) if sub else None
    report, rb = roots_report(path_poly, th=th, **_given(cfg, alpha_claim=float),
                              **_given(sub, classify_dt=float))
    return report, _branch_artifacts(rb, outdir)


def _run_zhikov(cfg, outdir):
    from .algebra import zhikov_pipeline

    report, rb = zhikov_pipeline(_build_signal(cfg["signal"]), bool(cfg.get("with_decay", True)),
                                 _build_thresholds(cfg["thresholds"]),
                                 **_given(cfg, dd_threshold=float, classify_dt=float))
    return report, _branch_artifacts(rb, outdir)


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
    """The report value at a dotted path; KeyError for a missing key, or a
    list index that is not an integer or is out of range."""
    # dict keys may themselves contain dots (epsilon values like "0.05"),
    # so dict descent greedily tries the longest joined key first
    parts = dotted.split(".")
    cur = report
    i = 0
    while i < len(parts):
        if isinstance(cur, list):
            try:
                cur = cur[int(parts[i])]
            except (ValueError, IndexError):
                raise KeyError(f"assertion path {dotted!r}: no list index {parts[i]!r} "
                               f"in a list of {len(cur)}") from None
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
            continue
        try:
            passed = ok()
        except TypeError as exc:
            failures.append({"assertion": a, "got": got, "error": f"op {op!r}: {exc}"})
            continue
        if not passed:
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
