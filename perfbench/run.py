"""recurlab benchmark: seeded experiment configs through ``run_config``.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 15 --trace 0

Run from the repository root. One process serves one workload as a closed
loop with one client: a pass runs every config of the workload in order
through ``recurlab.cli.run_config``, and the next pass starts when it ends.
After one warm-up pass, passes repeat while the next one is expected to
end within ``--seconds``. A speed probe between passes tracks how fast the
shared machine runs, and the end-to-end times are scaled to a reference
speed (README.md, "Machine speed").

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (see tracer.py), plus the tracing overhead. Every pass checks its
outputs: a config fails if it raises, exits non-zero (an in-config
assertion failed) or writes artifacts whose digests differ from the
warm-up pass of the same seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine. README.md lists the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("classify", "hull", "dynamics", "roots")

END_TO_END = {
    "wall_s": "s",
    "msamples_per_s": "Msample/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
}

PER_LAYER = (
    "cli.run_config.self_s",
    "catalog.build_forcing.s", "catalog.build_forcing.samples",
    "signal.write_signal_csv.s", "signal.write_signal_csv.calls", "signal.write_signal_csv.mb",
    "signal.read_signal_csv.s", "signal.read_signal_csv.mb",
    "signal.sup_distance.calls", "signal.sup_distance.s",
    "maps.discrete_fiber_count.s",
    "recurrence.classify.s", "recurrence.classify.self_s", "recurrence.classify.calls",
    "recurrence.translation_set_global.s", "recurrence.translation_set_global.calls",
    "recurrence.translation_set_remote.s", "recurrence.translation_set_remote.calls",
    "recurrence.translation_set_remote.accept_ratio",
    "recurrence.translation_set_remote.refined",
    "recurrence.remotely_tau_periodic_test.s", "recurrence.remotely_stationary_test.s",
    "recurrence.omega_limit_sample.s", "recurrence.equi_ap_test.s",
    "recurrence.minimality_test.s",
    "kernels.sup_diff_capped.calls", "kernels.sup_diff_capped.s",
    "kernels.sup_diff_capped.melems",
    "kernels.min_sliding_probe.calls", "kernels.min_sliding_probe.s",
    "kernels.min_sliding_probe.gops",
    "kernels.min_sliding_sup.calls", "kernels.min_sliding_sup.s",
    "kernels.min_sliding_sup.offsets",
    "kernels.aberth_grid.s", "kernels.aberth_grid.points",
    "algebra.roots_grid.s", "algebra.roots_grid.points", "algebra.roots_grid.calls",
    "algebra.track_branches.self_s", "algebra.classify_branches.s",
    "algebra.zhikov_pipeline.s",
    "flows.integrate.calls", "flows.integrate.s", "flows.integrate.nfev",
    "flows.hull_solutions.s", "flows.condition_h_margin.s",
    "flows.uniform_stability_probe.s", "flows.fiber_count.s",
    "delay.integrate_dde.s", "delay.integrate_dde.steps", "delay.integrate_dde.us_per_step",
    "trace.traced_wall_s", "trace.overhead_s",
)

UNITS = {"s": "s", "self_s": "s", "overhead_s": "s", "traced_wall_s": "s", "mb": "MB",
         "melems": "Melem", "gops": "Gop", "accept_ratio": "ratio", "us_per_step": "us"}

#: fresh-interpreter set-up probes per run, spread over the measured
#: time between passes; the median is reported
SETUP_REPEATS = 9

#: seconds the speed probe takes on the reference machine (README.md,
#: "Machine speed"); reported times are scaled to that speed
PROBE_REF_S = 0.07

_PROBE_DATA = np.random.default_rng(0).standard_normal(1_000_000)
_PROBE_WORK = np.empty_like(_PROBE_DATA)

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from recurlab.cli import load_config; [load_config(p) for p in sys.argv[2:]]")


def _cap_threads():
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
        caps[var] = nproc
    return caps


def _filesystem(path):
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _, mount, fs = line.split()[:3]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, fs
    except OSError:
        pass
    return fstype


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(thread_caps):
    import numpy
    import scipy

    from recurlab import _kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": _kernels.backend_name(),
        "thread_caps": thread_caps,
        "output_root": str(OUT),
        "output_fs": _filesystem(OUT),
        "loadavg": list(os.getloadavg()),
    }


def speed_probe():
    """Seconds for a fixed piece of interpreter and numpy work.

    The work does not touch recurlab, so no change to the program moves
    it; it only follows how fast the machine runs at the moment.
    """
    data, work = _PROBE_DATA, _PROBE_WORK
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    for _ in range(2):
        np.subtract(data[1:], data[:-1], out=work[1:])
        np.abs(work, out=work)
        np.maximum.accumulate(work, out=work)
        work[:] = data
        work.sort()
    return time.perf_counter() - t0


def setup_probe(cases):
    """Seconds from a fresh interpreter to every config loaded."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)] + [str(c.path) for c in cases]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Runner:
    """Runs passes over a workload's configs and checks their outputs."""

    def __init__(self, cases, out_root):
        import recurlab.cli

        # looked up per call, so a traced pass sees the wrapped run_config
        self.cli = recurlab.cli
        self.cases = cases
        self.out_root = out_root
        self.reference = {}
        self.attempted = 0
        self.failed = 0

    def run_pass(self, pass_id):
        """Run every config once; returns {config: seconds in run_config}."""
        out = self.out_root / f"pass{pass_id}"
        times = {}
        for case in self.cases:
            self.attempted += 1
            error = None
            start = time.perf_counter()
            try:
                code, manifest = self.cli.run_config(case.path, out)
            except Exception as exc:  # a raising config is a failed one
                error = f"raised {type(exc).__name__}: {exc}"
            else:
                digests = [(a["path"], a["sha256"]) for a in manifest["artifacts"]]
                ref = self.reference.setdefault(case.name, digests)
                if code != 0:
                    error = f"exit {code}: " + _read(out / case.name / "failures.json")
                elif digests != ref:
                    error = "artifact digests differ from the warm-up pass"
            times[case.name] = time.perf_counter() - start
            # hash-then-delete keeps the large branch CSVs off the disk
            shutil.rmtree(out / case.name, ignore_errors=True)
            if error:
                self.failed += 1
                print(f"FAIL {case.name} (pass {pass_id}): {error}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return times


def pass_wall(passes, speeds=None):
    """Wall time of one pass: each config's median over passes, summed.

    Per-config medians keep a slow config run in one pass from shifting
    the figure as much as a median of whole-pass sums would. With speeds
    (the mean of the speed probes taken just before and just after each
    pass), each time is first scaled to the reference machine speed.
    """
    scale = [PROBE_REF_S / s for s in speeds] if speeds else [1.0] * len(passes)
    return sum(statistics.median(p[name] * k for p, k in zip(passes, scale))
               for name in passes[0])


def _read(path):
    try:
        return path.read_text()[:2000]
    except OSError:
        return "(no failures.json)"


def layer_value(metric, totals):
    """Value of one per-layer metric from a pass's layer totals, or None."""
    layer, qty = metric.rsplit(".", 1)
    tot = totals.get(layer)
    if tot is None:
        return None
    if qty == "accept_ratio":
        return tot.get("accepted", 0) / tot["entries"] if tot.get("entries") else 0.0
    if qty == "us_per_step":
        return 1e6 * tot["s"] / tot["steps"] if tot.get("steps") else 0.0
    return tot.get(qty, 0)


def run(args):
    thread_caps = _cap_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    cases = workloads.generate(args.workload, args.seed, work / "inputs", size=args.size)
    grid_points = sum(c.grid_points for c in cases)

    runner = Runner(cases, work / "passes")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    runner.run_pass(0)  # warm-up: imports, caches, bytecode, reference digests
    passes = {False: [], True: []}
    speeds = {False: [], True: []}
    setup_times = []
    pass_id = 0
    start = time.perf_counter()
    probe = speed_probe()
    while True:
        pass_id += 1
        # set-up probes run between passes, spread evenly over the run, so
        # their median sees the same machine as the pass medians
        done = (time.perf_counter() - start) / args.seconds if args.seconds > 0 else 1.0
        if not args.trace and len(setup_times) < SETUP_REPEATS * max(done, 0.01):
            setup_times.append(setup_probe(cases) * PROBE_REF_S / probe)
        traced = tracer is not None and pass_id % 2 == 0
        before = probe
        if traced:
            tracer.pass_id = pass_id
            tracer.install()
        try:
            passes[traced].append(runner.run_pass(pass_id))
        finally:
            if traced:
                tracer.uninstall()
        probe = speed_probe()
        speeds[traced].append((before + probe) / 2)
        elapsed = time.perf_counter() - start
        enough = passes[False] and (passes[True] or setup_times)
        # stop before a pass that would end past --seconds
        if enough and elapsed * (pass_id + 1) / pass_id > args.seconds:
            break

    raw_wall_s = pass_wall(passes[False])
    wall_s = pass_wall(passes[False], speeds[False])
    if tracer is None:
        metrics = {
            "wall_s": wall_s,
            "msamples_per_s": grid_points / wall_s / 1e6,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passed_frac": 1.0 - runner.failed / runner.attempted,
        }
        units = END_TO_END
    else:
        traced_ids = range(2, pass_id + 1, 2)
        per_pass = [tracer.pass_totals(p) for p in traced_ids]
        traced_wall = pass_wall(passes[True])
        metrics = {"trace.traced_wall_s": traced_wall,
                   "trace.overhead_s": traced_wall - raw_wall_s}
        for name in PER_LAYER:
            if name.startswith("trace."):
                continue
            vals = [layer_value(name, totals) for totals in per_pass]
            if vals[0] is not None:
                metrics[name] = statistics.median(vals)
        units = {name: UNITS.get(name.rsplit(".", 1)[1], "count") for name in metrics}
        tracer.save(work / "spans.npz")
        print_shares(metrics, traced_wall)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    machine = machine_record(thread_caps)
    machine["speed_probe_s"] = statistics.median(speeds[False] + speeds[True])
    machine["unscaled_wall_s"] = raw_wall_s
    record = {"machine": machine, **result,
              "config_seconds": {"untraced": passes[False], "traced": passes[True]},
              "speed_probe_s": speeds}
    (work / "result.json").write_text(json.dumps(record, indent=1))
    for scratch in ("inputs", "passes"):
        shutil.rmtree(work / scratch, ignore_errors=True)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


def print_shares(metrics, traced_wall):
    print(f"layer shares of the traced pass wall time ({traced_wall:.3f} s):")
    for name, val in metrics.items():
        if name.endswith((".s", ".self_s")) and not name.startswith("trace."):
            print(f"  {name:48s} {val:9.4f} s  {100 * val / traced_wall:6.1f} %")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's reduced configs")
    args = parser.parse_args(argv)
    if not (SRC / "recurlab" / "cli.py").is_file():
        print(f"recurlab sources not found under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
